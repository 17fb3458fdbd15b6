// Package fleet is the datacenter control plane over the device layer: a
// deterministic, simulated-time manager that owns a fleet of registered
// device.NIC instances, admits and evicts tenants, and places tenant
// network functions on devices with a bin-packing scheduler over the
// modeled resource vector (cores, DRAM, locked-TLB entries, L2 cache
// ways, accelerator clusters — device.Resources).
//
// The paper evaluates isolation one device at a time; fleet is the layer
// that turns those one-shot runs into placement, churn, admission-
// control, drain, and failover experiments. λ-NIC-style churn (continuous
// arrival and teardown of short-lived functions) and SuperNIC-style
// scheduler-driven multi-tenancy both land here.
//
// Everything is simulated time and derived randomness:
//
//   - The fleet clock is a plain cycle counter advanced by the event
//     script (never the wall clock), so oper-state dumps are pinnable.
//   - Traffic bursts fan out one engine job per device, keyed by a
//     stable (burst, device) label, so metric dumps and traces are
//     byte-identical at any -workers count.
//   - All randomness flows through sim.DeriveRand(seed, labels...).
//
// The northbound API (api.go) serves config, oper state, and obs
// metric/trace exports over stdlib net/http + JSON; cmd/snicd is the
// daemon. The numbered end-to-end scenario suite in
// internal/fleet/scenarios drives a live server through the same API and
// pins oper-state and metric snapshots as goldens.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"snic/internal/device"
)

// Errors the manager returns; api.go maps them onto HTTP status codes.
var (
	// ErrNoTenant: the named tenant was never admitted (404).
	ErrNoTenant = errors.New("fleet: no such tenant")
	// ErrNoDevice: the named device is not registered (404).
	ErrNoDevice = errors.New("fleet: no such device")
	// ErrNoNF: the tenant has no placement under that NF name (404).
	ErrNoNF = errors.New("fleet: no such NF")
	// ErrExists: admission or registration under a taken name (409).
	ErrExists = errors.New("fleet: already exists")
	// ErrQuota: the placement would exceed the tenant's quota (409).
	ErrQuota = errors.New("fleet: tenant quota exceeded")
	// ErrNoCapacity: no active device can hold the demand (409).
	ErrNoCapacity = errors.New("fleet: no device has capacity")
	// ErrDeviceState: the operation conflicts with the device's state,
	// e.g. draining an already-failed device (409).
	ErrDeviceState = errors.New("fleet: device state conflict")
)

// DeviceSpec declares one fleet device in configs and scenario scripts.
// The zero fields pick the device factory's per-model defaults.
type DeviceSpec struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	Cores int    `json:"cores,omitempty"`
	MemMB uint64 `json:"mem_mb,omitempty"`
}

// ResourceSpec is the JSON-friendly quota/demand vector of configs and
// scripts (MB instead of bytes). For tenant quotas a zero axis means
// unlimited; for NF demands zeros pick defaults.
type ResourceSpec struct {
	Cores         int    `json:"cores,omitempty"`
	MemMB         uint64 `json:"mem_mb,omitempty"`
	TLBEntries    int    `json:"tlb_entries,omitempty"`
	CacheWays     int    `json:"cache_ways,omitempty"`
	AccelClusters int    `json:"accel_clusters,omitempty"`
}

// checkMemMB rejects a client-supplied MB count whose byte value does not
// fit in 64 bits. Every entry point that takes a mem_mb calls it first
// (devices check the tighter MaxDeviceMemMB instead), so the manager's
// internal MB→byte shifts never wrap: unchecked, 2^44 MB would become a
// zero-byte demand that passes any quota.
func checkMemMB(what string, mb uint64) error {
	if mb > math.MaxUint64>>20 {
		return fmt.Errorf("fleet: %s mem_mb %d overflows a byte count", what, mb)
	}
	return nil
}

// MaxDeviceMemMB caps a device's DRAM at 64 GB. Every model keeps an
// owner slot per memory frame, so an uncapped mem_mb that merely fits in
// 64 bits (2^30 MB, say) would allocate gigabytes of ownership table.
// The cap is far above every registered model's 64 MB default and every
// device a scenario adds.
const MaxDeviceMemMB = 64 << 10

// allows reports whether adding add to used stays inside the quota.
// Zero quota axes are unlimited: a tenant admitted with an empty quota
// is bounded only by device capacity.
func (s ResourceSpec) allows(used, add device.Resources) bool {
	total := used.Add(add)
	if s.Cores > 0 && total.Cores > s.Cores {
		return false
	}
	if s.MemMB > 0 && total.MemBytes > s.MemMB<<20 {
		return false
	}
	if s.TLBEntries > 0 && total.TLBEntries > s.TLBEntries {
		return false
	}
	if s.CacheWays > 0 && total.CacheWays > s.CacheWays {
		return false
	}
	if s.AccelClusters > 0 && total.AccelClusters > s.AccelClusters {
		return false
	}
	return true
}

// NFSpec describes one network-function instance to place. MemMB
// defaults to 1, CacheWays and AccelClusters to 1, Cores to 1. Port is
// the UDP destination port steered to this NF; 0 auto-assigns the next
// free port so every placement in a scenario gets a unique, stable
// steering rule.
type NFSpec struct {
	Name          string `json:"name"`
	MemMB         uint64 `json:"mem_mb,omitempty"`
	Cores         int    `json:"cores,omitempty"`
	CacheWays     int    `json:"cache_ways,omitempty"`
	AccelClusters int    `json:"accel_clusters,omitempty"`
	Port          uint16 `json:"port,omitempty"`
}

func (s *NFSpec) defaults() {
	if s.MemMB == 0 {
		s.MemMB = 1
	}
	if s.Cores == 0 {
		s.Cores = 1
	}
	if s.CacheWays == 0 {
		s.CacheWays = 1
	}
	if s.AccelClusters == 0 {
		s.AccelClusters = 1
	}
}

// demandOn computes the spec's effective demand vector on a device with
// the given ownership frame size: the locked-TLB entry demand is the
// number of frames the reservation spans (§4.2 installs one mapping per
// frame at launch).
func (s NFSpec) demandOn(frameSize uint64) device.Resources {
	memBytes := s.MemMB << 20
	entries := int(memBytes / frameSize)
	if memBytes%frameSize != 0 {
		entries++
	}
	return device.Resources{
		Cores:         s.Cores,
		MemBytes:      memBytes,
		TLBEntries:    entries,
		CacheWays:     s.CacheWays,
		AccelClusters: s.AccelClusters,
	}
}

// WorkloadSpec is one traffic burst: every live placement receives
// Packets steered frames and issues AccelOps accelerator and BusOps
// interconnect operations. The burst fans out one engine job per
// device, so devices progress concurrently while each device's own
// placements stay serial (they share the device instance).
type WorkloadSpec struct {
	Packets    int `json:"packets,omitempty"`
	AccelOps   int `json:"accel_ops,omitempty"`
	BusOps     int `json:"bus_ops,omitempty"`
	FrameBytes int `json:"frame_bytes,omitempty"`
}

func (w *WorkloadSpec) defaults() {
	if w.Packets == 0 {
		w.Packets = 16
	}
	if w.FrameBytes == 0 {
		w.FrameBytes = 256
	}
}
