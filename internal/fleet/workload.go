package fleet

import (
	"fmt"
	"sort"

	"snic/internal/engine"
	"snic/internal/obs"
	"snic/internal/sim"
	"snic/internal/trace"
)

// pktCycles is the modeled per-frame ingress cost a burst charges the
// device clock, on top of the bus and accelerator delays the device
// models itself.
const pktCycles = 12

// BurstResult summarizes one traffic burst across the fleet. Every
// field is a pure function of (seed, event history) — byte-identical at
// any worker count.
type BurstResult struct {
	Burst         uint64 `json:"burst"`
	Devices       int    `json:"devices"`
	Placements    int    `json:"placements"`
	Packets       uint64 `json:"packets"`
	Drops         uint64 `json:"drops"`
	PacketBytes   uint64 `json:"packet_bytes"`
	AccelOps      uint64 `json:"accel_ops"`
	BusOps        uint64 `json:"bus_ops"`
	MemRoundtrips uint64 `json:"mem_roundtrips"`
	Cycles        uint64 `json:"cycles"` // clock advance: the slowest device
	Clock         uint64 `json:"clock"`  // fleet clock after the burst
}

// fanOutLocked is the manager's single seam onto the engine pool: every
// op that parallelizes across devices (traffic bursts, churn runs)
// funnels through this call while holding m.mu.
//
// Holding mu across the fan-out is the determinism contract, not an
// oversight: the lock is what gives each engine job exclusive ownership
// of its devices for the whole op, and the jobs never re-enter the
// manager. Serializing fan-outs against control-plane mutations is
// exactly the semantics the scenario goldens pin.
func fanOutLocked[T any](m *Manager, jobs []engine.Job[T]) ([]T, error) {
	//lint:allow lock-discipline fan-out jobs own their devices exclusively under mu and never re-enter the manager; serialization is the determinism contract
	results, _, err := engine.Run(engine.Config{
		Workers:  m.cfg.Workers,
		Seed:     m.cfg.Seed,
		Progress: m.cfg.Progress,
	}, jobs)
	return results, err
}

// deviceBurst is one engine job's result: the burst as seen by a single
// device.
type deviceBurst struct {
	packets, drops, bytes    uint64
	accelOps, busOps, roundt uint64
	cycles                   uint64
}

func (a deviceBurst) add(b deviceBurst) deviceBurst {
	a.packets += b.packets
	a.drops += b.drops
	a.bytes += b.bytes
	a.accelOps += b.accelOps
	a.busOps += b.busOps
	a.roundt += b.roundt
	if b.cycles > a.cycles {
		a.cycles = b.cycles
	}
	return a
}

// Burst drives one traffic burst through every live placement: each NF
// receives spec.Packets steered UDP frames (plus a few rng-chosen stray
// frames that match no rule and drop), performs a memory round-trip per
// retrieved frame, and issues spec.AccelOps accelerator and spec.BusOps
// interconnect operations.
//
// The burst fans out one engine job per device. Devices are independent
// instances, so jobs run concurrently without sharing mutable state;
// each job's randomness derives from (seed, "fleet/burst", burst/device)
// and results merge in sorted-device order, which keeps every counter,
// trace, and golden worker-count invariant. The fleet clock advances by
// the slowest device's burst time.
func (m *Manager) Burst(spec WorkloadSpec) (BurstResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	spec.defaults()

	burst := m.bursts
	m.bursts++

	names := make([]string, 0, len(m.devices))
	for n, d := range m.devices {
		if d.state == stateActive && len(d.placed) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	start := m.clock
	jobs := make([]engine.Job[deviceBurst], len(names))
	for i, n := range names {
		md := m.devices[n]
		jobs[i] = engine.Job[deviceBurst]{
			Experiment: "fleet/burst",
			Key:        fmt.Sprintf("%03d/%s", burst, n),
			Run: func(rng *sim.Rand) (deviceBurst, error) {
				return m.burstDevice(md, spec, burst, start, rng)
			},
		}
	}
	results, err := fanOutLocked(m, jobs)
	if err != nil {
		return BurstResult{}, err
	}

	var total deviceBurst
	placements := 0
	for i, r := range results {
		total = total.add(r)
		placements += len(m.devices[names[i]].placed)
	}
	m.clock += total.cycles
	m.stats.Bursts++
	m.stats.Packets += total.packets
	m.stats.Drops += total.drops
	m.stats.PacketBytes += total.bytes
	m.stats.AccelOps += total.accelOps
	m.stats.BusOps += total.busOps
	m.stats.MemRoundtrip += total.roundt
	m.event(fmt.Sprintf("burst %03d", burst))
	return BurstResult{
		Burst:         burst,
		Devices:       len(names),
		Placements:    placements,
		Packets:       total.packets,
		Drops:         total.drops,
		PacketBytes:   total.bytes,
		AccelOps:      total.accelOps,
		BusOps:        total.busOps,
		MemRoundtrips: total.roundt,
		Cycles:        total.cycles,
		Clock:         m.clock,
	}, nil
}

// burstDevice runs one device's share of a burst. It is the body of one
// engine job: md is owned exclusively by this job for the duration (the
// manager lock is held across the whole burst, and each device appears
// in exactly one job).
func (m *Manager) burstDevice(md *managedDevice, spec WorkloadSpec, burst, start uint64, rng *sim.Rand) (deviceBurst, error) {
	var out deviceBurst
	// One streaming synthesizer per device job: frames are drawn one at a
	// time over a reused payload buffer, so burst size never shows up in
	// the job's memory footprint. The synth's draw order matches the
	// pre-streaming inline code, pinning the scenario goldens.
	synth := trace.NewFrameSynth(rng, spec.FrameBytes)
	// Every frame is marshalled into md.txBuf and retrieved into
	// md.rxBuf: Inject copies the frame into device memory and Retrieve
	// copies it out, so neither buffer is retained past its call.
	for pi, key := range md.sortedPlacementKeys() {
		pl := md.placed[key]
		now := start
		var got uint64

		// Steered frames: unique five-tuples per (burst, placement),
		// rng-filled payloads, delivered through the device's real
		// classifier and retrieved from the NF's own receive ring.
		for p := 0; p < spec.Packets; p++ {
			pk := synth.Steered(0x0a800000|uint32(pi), pl.Port)
			md.txBuf = pk.AppendMarshal(md.txBuf[:0])
			out.bytes += uint64(len(md.txBuf))
			if _, err := md.nic.Inject(md.txBuf); err != nil {
				out.drops++
				continue
			}
			now += pktCycles
		}
		// Stray frames: no placement matches UDP port 1, so these
		// exercise the drop path (and the drop counters in goldens).
		for s := synth.StrayCount(spec.Packets); s > 0; s-- {
			pk := synth.Stray()
			md.txBuf = pk.AppendMarshal(md.txBuf[:0])
			out.bytes += uint64(len(md.txBuf))
			if _, err := md.nic.Inject(md.txBuf); err != nil {
				out.drops++
			}
		}

		// Drain the receive ring; one memory round-trip per frame
		// (write the frame back into the NF's reservation and read it
		// out, touching the device's real ownership checks).
		for {
			buf, err := md.nic.Retrieve(pl.Func, md.rxBuf)
			if err != nil {
				break
			}
			md.rxBuf = buf
			got++
			if werr := md.nic.Write(pl.Func, 0, buf); werr == nil {
				if rerr := md.nic.Read(pl.Func, 0, buf); rerr == nil {
					out.roundt++
				}
			}
		}
		out.packets += got

		for a := 0; a < spec.AccelOps; a++ {
			done, _ := md.nic.AcceleratorOp(pl.Func, now)
			now = done
			out.accelOps++
		}
		client := pi % md.nic.Cores()
		for b := 0; b < spec.BusOps; b++ {
			done, err := md.nic.BusOp(client, now)
			if err != nil {
				return out, fmt.Errorf("fleet: bus op on %s for %s: %w", md.name, pl.key(), err)
			}
			now = done
			out.busOps++
		}
		if d := now - start; d > out.cycles {
			out.cycles = d
		}

		wl := m.workloadObs(md, pl)
		wl.packets.Add(got)
		wl.accelOps.Add(uint64(spec.AccelOps))
		wl.busOps.Add(uint64(spec.BusOps))
		wl.cycles.Observe(now - start)
	}
	m.cfg.Obs.Tracer("fleet/"+md.name+"/wl").Span(
		"wl", fmt.Sprintf("burst %03d", burst), start, out.cycles)
	return out, nil
}

// placementObs holds a placement's burst-workload metric handles.
type placementObs struct {
	packets, accelOps, busOps *obs.Counter
	cycles                    *obs.Histogram
}

// workloadObs returns pl's workload handles, interning them on its
// first burst: a placement removed before any burst registers no
// series, so the metrics export is the same as when every burst
// interned them afresh.
func (m *Manager) workloadObs(md *managedDevice, pl *Placement) *placementObs {
	if pl.wl == nil {
		lbl := func(name string) obs.Label {
			return obs.Label{
				Device: "fleet/" + md.name, Owner: pl.Tenant,
				Component: "wl", Name: name,
			}
		}
		pl.wl = &placementObs{
			packets:  m.cfg.Obs.Counter(lbl("packets")),
			accelOps: m.cfg.Obs.Counter(lbl("accel_ops")),
			busOps:   m.cfg.Obs.Counter(lbl("bus_ops")),
			cycles:   m.cfg.Obs.Histogram(lbl("burst_cycles")),
		}
	}
	return pl.wl
}
