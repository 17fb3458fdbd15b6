package fleet

import (
	"fmt"
	"testing"

	"snic/internal/device"
	"snic/internal/obs"
)

// benchFleet builds the shape of the perfbench fleet workload: four
// devices of every registered model plus four more S-NICs (24 with the
// five models), six tenants, and 40 placed NFs of 1–2 MB, with a metric
// registry attached as snicd attaches one.
func benchFleet(b *testing.B) *Manager {
	b.Helper()
	m, err := NewManager(Config{Seed: 1, Obs: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	var models []string
	for _, model := range device.Models() {
		models = append(models, model, model, model, model)
	}
	models = append(models, "snic", "snic", "snic", "snic")
	for i, model := range models {
		if err := m.AddDevice(DeviceSpec{Name: fmt.Sprintf("d%02d-%s", i, model), Model: model}); err != nil {
			b.Fatal(err)
		}
	}
	const tenants = 6
	for i := 0; i < tenants; i++ {
		if err := m.Admit(fmt.Sprintf("t%d", i), ResourceSpec{}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		spec := NFSpec{Name: fmt.Sprintf("nf%05d", i), MemMB: uint64(1 + i%2)}
		if _, err := m.Place(fmt.Sprintf("t%d", i%tenants), spec); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkBurst times one 32-packet traffic burst over the perfbench
// fleet shape: frame synthesis, marshalling, steering, ring delivery,
// retrieval, and the per-frame memory round trip on every placement.
// Commodity receive areas and allocators fill up as bursts accumulate,
// so a fresh fleet is built, outside the timer, every eight bursts; the
// first burst on each fleet interns the placements' metric handles.
// packets/op, the frames delivered to and retrieved from the NFs per
// burst, is the yardstick for allocs/op.
func BenchmarkBurst(b *testing.B) {
	const burstsPerFleet = 8
	spec := WorkloadSpec{Packets: 32, AccelOps: 2, BusOps: 2}
	var m *Manager
	var packets uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%burstsPerFleet == 0 {
			b.StopTimer()
			m = benchFleet(b)
			b.StartTimer()
		}
		r, err := m.Burst(spec)
		if err != nil {
			b.Fatal(err)
		}
		packets += r.Packets
	}
	b.ReportMetric(float64(packets)/float64(b.N), "packets/op")
}
