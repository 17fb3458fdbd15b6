// Package device is the seam between the evaluation harness and the NIC
// models. It defines one interface — device.NIC — that the S-NIC device
// (internal/snic) and the three commodity baselines (internal/baseline)
// all implement through thin adapters, plus a registry that builds any
// model from a declarative Spec.
//
// The interface deliberately exposes both the legitimate paths (launch,
// owner-scoped read/write, packet injection) and the illegitimate ones
// the §3.3 attacks need (raw physical probes from a malicious function,
// management/secure-world reads, the shared-bus and shared-accelerator
// substrates). Each model answers those probes according to its
// architecture, and Caps() declares which §4 defenses it implements —
// so the attack suite (internal/attacks) is written once against
// device.NIC and predicts its own outcomes from the capability flags.
package device

import (
	"errors"
	"fmt"
	"strings"

	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
	"snic/internal/pktio"
	"snic/internal/snic"
)

// Capability is a bitmask of isolation properties a NIC model provides.
// Attacks declare the capability they exploit the *absence* of; a device
// holding the capability blocks the attack.
type Capability uint32

// Isolation capabilities (§4 defenses) plus architecture properties that
// gate attack applicability.
const (
	// SingleOwnerRAM: DRAM frames have exactly one owner and no function
	// can name another function's physical memory (§4.2 locked TLBs +
	// ownership map). Its absence is the xkphys / raw-island hole.
	SingleOwnerRAM Capability = 1 << iota
	// ArbitratedBus: the interconnect gives every client a guaranteed
	// share (§4.5 temporal partitioning). Its absence allows the bus DoS
	// and flow watermarking.
	ArbitratedBus
	// LockedTLB: translations are installed at launch and locked; no
	// runtime fault ever reaches an OS (§4.2). Its absence (with demand
	// paging) enables controlled-channel attacks.
	LockedTLB
	// PartitionedCache: shared caches are statically partitioned per
	// tenant (§4.5). Its absence enables prime+probe.
	PartitionedCache
	// PrivateAccel: accelerator clusters are reserved per function
	// (§4.4). Its absence enables contention side channels.
	PrivateAccel
	// MgmtIsolated: the management principal cannot read function memory
	// (§4.2 denylist). Its absence is the BlueField secure-world hole.
	MgmtIsolated
	// Attestation: the device signs launch measurements (§4.6).
	Attestation
	// DemandPaging marks an architecture property, not a defense: the
	// OS handles runtime translation faults for functions. It is the
	// prerequisite the controlled-channel attack needs.
	DemandPaging
	// WarmPool marks an *active* churn fast path, not a static model
	// property: teardown parks scrubbed frames in a per-device arena
	// for reuse by the next launch. Devices advertise it only while the
	// fast path is enabled (see SNIC.EnableFastPaths), so the attack
	// matrix and placement logic see exactly the configuration they run
	// against.
	WarmPool
)

// Has reports whether c contains every bit of f.
func (c Capability) Has(f Capability) bool { return c&f == f }

var capNames = []struct {
	bit  Capability
	name string
}{
	{SingleOwnerRAM, "single-owner-ram"},
	{ArbitratedBus, "arbitrated-bus"},
	{LockedTLB, "locked-tlb"},
	{PartitionedCache, "partitioned-cache"},
	{PrivateAccel, "private-accel"},
	{MgmtIsolated, "mgmt-isolated"},
	{Attestation, "attestation"},
	{DemandPaging, "demand-paging"},
	{WarmPool, "warm-pool"},
}

func (c Capability) String() string {
	var parts []string
	for _, cn := range capNames {
		if c.Has(cn.bit) {
			parts = append(parts, cn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// FuncID names a function launched on a device. It is the same principal
// namespace as mem.Owner (and snic.ID), so adapters pass it straight to
// the underlying models.
type FuncID = mem.Owner

// FuncSpec describes one function to launch, model-independently.
type FuncSpec struct {
	Name     string
	Image    []byte            // initial code+data (default: Name bytes)
	MemBytes uint64            // memory reservation (default 1 MB)
	CoreMask uint64            // cores to bind; 0 = auto-pick one free core
	Rules    []pktio.MatchSpec // ingress steering predicates
}

func (s *FuncSpec) defaults() {
	if s.Name == "" {
		s.Name = "nf"
	}
	if len(s.Image) == 0 {
		s.Image = []byte(s.Name + " image")
	}
	if s.MemBytes == 0 {
		s.MemBytes = 1 << 20
	}
}

// Errors shared by the adapters.
var (
	// ErrUnsupported is returned for operations the model does not
	// implement (e.g. Attest on a commodity NIC).
	ErrUnsupported = errors.New("device: operation unsupported by this model")
	// ErrNoFrame is returned by Retrieve when no frame is pending.
	ErrNoFrame = errors.New("device: no pending frame")
	// ErrNoFunc is returned for an unknown FuncID.
	ErrNoFunc = errors.New("device: no such function")
	// ErrNoCores is returned when Launch cannot find a free core.
	ErrNoCores = errors.New("device: no free cores")
)

// NIC is the model-independent device interface. The first block is the
// legitimate tenant/operator API; the second block exposes the attack
// surface each architecture actually has, so the polymorphic attack
// suite can issue the same illegal access everywhere and observe which
// hardware refuses it.
type NIC interface {
	// Model returns the registry name this device was built under.
	Model() string
	// Caps returns the isolation capabilities the model implements.
	Caps() Capability

	// Launch starts a function and returns its id.
	Launch(spec FuncSpec) (FuncID, error)
	// Teardown destroys a function, releasing (and, where the model
	// supports it, scrubbing) its resources.
	Teardown(id FuncID) error
	// Attest signs the function's launch measurement. Models without
	// the Attestation capability return ErrUnsupported.
	Attest(id FuncID, nonce []byte) (attest.Quote, error)

	// Read and Write access a function's own memory at a byte offset
	// into its reservation — the path the function's own code uses.
	Read(id FuncID, off uint64, buf []byte) error
	Write(id FuncID, off uint64, data []byte) error

	// Inject delivers a wire frame to the device's ingress; the return
	// is the function it was steered to (0 if no rule matched). The
	// device copies the frame and keeps no reference to it.
	Inject(frame []byte) (FuncID, error)
	// Retrieve pops the next pending frame from a function's receive
	// path, re-reading its bytes from device memory (so corruption that
	// happened after Inject is visible). The frame is read into dst[:n]
	// when cap(dst) >= n and into a fresh slice otherwise; either way the
	// caller owns the result, which never aliases device memory. Callers
	// that keep frames pass nil; a loop can pass its last frame back to
	// retrieve without allocating.
	Retrieve(id FuncID, dst []byte) ([]byte, error)

	// ProbeRead / ProbeWrite are a *malicious function's* attempt to
	// access an arbitrary physical address (xkphys-style). Models with
	// SingleOwnerRAM refuse anything outside the prober's reservation.
	ProbeRead(id FuncID, pa mem.Addr, buf []byte) error
	ProbeWrite(id FuncID, pa mem.Addr, data []byte) error
	// MgmtRead is the management principal's read path: the NIC OS on
	// S-NIC (denylist-checked), privileged software on LiquidIO/Agilio,
	// the secure-world OS on BlueField.
	MgmtRead(pa mem.Addr, buf []byte) error

	// Region reports where a function's reservation lives in DRAM.
	Region(id FuncID) (mem.Range, bool)
	// Resources reports the device's schedulable capacity vector — what
	// a fleet-level placer bin-packs tenant functions against.
	Resources() Resources
	MemBytes() uint64
	FrameSize() uint64
	Cores() int
	FreeCores() int
	// Live returns the number of running functions.
	Live() int

	// CachePolicy returns the shared-L2 partitioning policy the model
	// uses — the substrate prime+probe and the co-tenancy sweeps run on.
	CachePolicy() cache.Policy
	// NewBusArbiter builds the model's interconnect arbiter for the
	// given number of clients (FIFO on commodity NICs, temporal
	// partitioning on S-NIC).
	NewBusArbiter(clients int) bus.Arbiter
	// BusOp issues one bus transaction from a client at local time now,
	// returning the completion cycle. A wait past the watchdog
	// hard-crashes the NIC (§3.3), and every later op fails.
	BusOp(client int, now uint64) (uint64, error)
	// AcceleratorOp runs one operation on the model's crypto
	// accelerator at local time now, returning (completion, queueing
	// delay). The delay is the §3.2 side channel on shared units; with
	// PrivateAccel it is always zero.
	AcceleratorOp(id FuncID, now uint64) (done, waited uint64)
}

// Spec declaratively describes a device to build. Model selects the
// registered builder; the remaining fields parameterize it, with zero
// values picking per-model defaults.
type Spec struct {
	Model       string
	Cores       int
	MemBytes    uint64
	FrameSize   uint64 // ownership granularity (models that have one)
	SecureBytes uint64 // bluefield: secure-world carve-out (default MemBytes/4)
	Islands     int    // agilio: bus clients (default Cores)

	// S-NIC extras.
	Rates  *snic.Rates // Figure 6 latency calibration override
	Serial string
	Vendor *attest.Vendor // attestation root (default: a fresh vendor)
}

func (s *Spec) defaults() {
	if s.Cores == 0 {
		s.Cores = 4
	}
	if s.MemBytes == 0 {
		s.MemBytes = 64 << 20
	}
	if s.SecureBytes == 0 {
		s.SecureBytes = s.MemBytes / 4
	}
	if s.Islands == 0 {
		s.Islands = s.Cores
	}
	if s.Serial == "" {
		s.Serial = "SNIC-SIM-0"
	}
}

// String summarizes the spec for error messages.
func (s Spec) String() string {
	return fmt.Sprintf("%s{cores=%d mem=%dMB}", s.Model, s.Cores, s.MemBytes>>20)
}
