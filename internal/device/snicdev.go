package device

import (
	"errors"
	"fmt"

	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
	"snic/internal/snic"
	"snic/internal/tlb"
)

func init() {
	Register("snic", func(spec Spec) (NIC, error) { return newSNIC(spec) })
}

// SNIC adapts the paper's device (internal/snic) to the device.NIC
// interface. It is exported (unlike the commodity adapters) because the
// richer examples and Figure 6 need the underlying *snic.Device — VPP
// access, SendLocal, launch reports — after building it through the
// registry.
type SNIC struct {
	dev    *snic.Device
	vendor *attest.Vendor
	cores  *corePool
	bus    *busSim
	mgmtVA tlb.VAddr
	// Private per-function accelerator clusters: each function queues
	// only behind itself (§4.4), so the contention channel is silent.
	accelFree map[FuncID]uint64
}

func newSNIC(spec Spec) (*SNIC, error) {
	vendor := spec.Vendor
	if vendor == nil {
		var err error
		vendor, err = attest.NewVendor("SNIC Vendor", nil)
		if err != nil {
			return nil, err
		}
	}
	cfg := snic.Config{
		Cores:     spec.Cores,
		MemBytes:  spec.MemBytes,
		FrameSize: spec.FrameSize,
		Serial:    spec.Serial,
	}
	dev, err := snic.New(cfg, vendor)
	if err != nil {
		return nil, err
	}
	if spec.Rates != nil {
		dev.SetRates(*spec.Rates)
	}
	return &SNIC{
		dev:       dev,
		vendor:    vendor,
		cores:     newCorePool(dev.Cores()),
		bus:       newBusSim(bus.NewTemporal(max(2, dev.Cores()), 60, 10), dev.Cores()),
		accelFree: make(map[FuncID]uint64),
	}, nil
}

// Underlying returns the wrapped S-NIC device for callers that need the
// full §4 API (VPPs, SendLocal, launch reports, reboot).
func (s *SNIC) Underlying() *snic.Device { return s.dev }

// Vendor returns the attestation root the device was manufactured under.
func (s *SNIC) Vendor() *attest.Vendor { return s.vendor }

func (s *SNIC) Model() string { return "snic" }

func (s *SNIC) Caps() Capability {
	c := SingleOwnerRAM | ArbitratedBus | LockedTLB | PartitionedCache |
		PrivateAccel | MgmtIsolated | Attestation
	if s.dev.FastPathConfig().WarmPool {
		c |= WarmPool
	}
	return c
}

// EnableFastPaths turns the churn fast paths on (or off, with the zero
// value) on the underlying S-NIC. A warm pool left unsized by the
// caller is bounded from the device's capacity vector — see
// WarmPoolFrames — so fleet code can enable pooling without knowing the
// DRAM geometry.
func (s *SNIC) EnableFastPaths(fp snic.FastPaths) {
	if fp.WarmPool && fp.PoolFrames == 0 {
		fp.PoolFrames = WarmPoolFrames(s.Resources(), s.FrameSize())
	}
	s.dev.SetFastPaths(fp)
}

func (s *SNIC) Launch(spec FuncSpec) (FuncID, error) {
	id, _, err := s.launch(spec, 0)
	return id, err
}

// LaunchTimed launches like Launch but also returns the §4.2 per-phase
// launch report, and reserves only small per-function port buffers
// (32 KB per direction): churn workloads cycle many short-lived
// functions through the switch ports, where the default 256 KB
// reservations would exhaust the physical TX buffer at a handful of
// live functions.
func (s *SNIC) LaunchTimed(spec FuncSpec) (FuncID, snic.LaunchReport, error) {
	return s.launch(spec, 32<<10)
}

// launch is the shared body of Launch and LaunchTimed; portBuf 0 keeps
// the device's default per-direction port reservation.
func (s *SNIC) launch(spec FuncSpec, portBuf uint64) (FuncID, snic.LaunchReport, error) {
	spec.defaults()
	mask, err := s.cores.pick(spec.CoreMask)
	if err != nil {
		return 0, snic.LaunchReport{}, err
	}
	rep, err := s.dev.Launch(snic.LaunchSpec{
		CoreMask:   mask,
		Image:      spec.Image,
		MemBytes:   mem.AlignUp(spec.MemBytes, s.dev.Memory().FrameSize()),
		Rules:      spec.Rules,
		RXBufBytes: portBuf,
		TXBufBytes: portBuf,
		DMACore:    -1,
	})
	if err != nil {
		return 0, snic.LaunchReport{}, err
	}
	if _, err := s.cores.claim(rep.ID, mask); err != nil {
		return 0, snic.LaunchReport{}, fmt.Errorf("device: core table out of sync: %w", err)
	}
	return rep.ID, rep, nil
}

// TeardownTimed tears down like Teardown but also returns the §4.2
// per-phase teardown report.
func (s *SNIC) TeardownTimed(id FuncID) (snic.TeardownReport, error) {
	rep, err := s.dev.Teardown(id)
	if err != nil {
		return snic.TeardownReport{}, noFunc(err)
	}
	s.cores.release(id)
	delete(s.accelFree, id)
	return rep, nil
}

// noFunc normalizes the device's "no such NF" to the interface error.
// Each owner-scoped call resolves its function once, inside the device.
func noFunc(err error) error {
	if errors.Is(err, snic.ErrNoNF) {
		return ErrNoFunc
	}
	return err
}

func (s *SNIC) Teardown(id FuncID) error {
	_, err := s.TeardownTimed(id)
	return err
}

func (s *SNIC) Attest(id FuncID, nonce []byte) (attest.Quote, error) {
	q, _, _, err := s.dev.AttestNF(id, nonce)
	return q, noFunc(err)
}

func (s *SNIC) Read(id FuncID, off uint64, buf []byte) error {
	return noFunc(s.dev.NFRead(id, tlb.VAddr(off), buf))
}

func (s *SNIC) Write(id FuncID, off uint64, data []byte) error {
	return noFunc(s.dev.NFWrite(id, tlb.VAddr(off), data))
}

func (s *SNIC) Inject(frame []byte) (FuncID, error) {
	return s.dev.Switch().Deliver(frame)
}

func (s *SNIC) Retrieve(id FuncID, dst []byte) ([]byte, error) {
	buf, err := s.dev.NFRecv(id, dst)
	if errors.Is(err, snic.ErrRxEmpty) {
		return nil, ErrNoFrame
	}
	return buf, noFunc(err)
}

// ProbeRead is the attacker's address-guessing attempt. S-NIC cores have
// no physical addressing: the only addresses a function can issue go
// through its locked TLB, so "physical address" pa is just another VA —
// it resolves inside the function's own reservation or faults.
func (s *SNIC) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	return noFunc(s.dev.NFRead(id, tlb.VAddr(pa), buf))
}

func (s *SNIC) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	return noFunc(s.dev.NFWrite(id, tlb.VAddr(pa), data))
}

// MgmtRead maps a frame-aligned scratch window over [pa, pa+len) through
// the management core's guarded MMU and reads through it. The denylist
// dual-walk rejects the mapping whenever the target belongs to a live
// function (§4.2), which is exactly the property the snooping attack
// tests.
func (s *SNIC) MgmtRead(pa mem.Addr, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	fs := s.dev.Memory().FrameSize()
	base := uint64(pa) / fs * fs
	span := mem.AlignUp(uint64(pa)+uint64(len(buf)), fs) - base
	va := s.mgmtVA
	s.mgmtVA += tlb.VAddr(span)
	mapped := uint64(0)
	unmap := func() {
		for off := uint64(0); off < mapped; off += fs {
			s.dev.MgmtUnmap(va + tlb.VAddr(off))
		}
	}
	for off := uint64(0); off < span; off += fs {
		if err := s.dev.MgmtMap(va+tlb.VAddr(off), mem.Addr(base+off), fs); err != nil {
			unmap()
			return err
		}
		mapped += fs
	}
	err := s.dev.MgmtRead(va+tlb.VAddr(uint64(pa)-base), buf)
	unmap()
	return err
}

func (s *SNIC) Region(id FuncID) (mem.Range, bool) {
	v := s.dev.NF(id)
	if v == nil {
		return mem.Range{}, false
	}
	return v.Mem, true
}

// Resources: S-NIC reservations are hardware-enforced — locked per-core
// TLB banks, statically partitioned L2 ways, and private accelerator
// clusters summed across the four on-NIC accelerators.
func (s *SNIC) Resources() Resources {
	return Resources{
		Cores:         s.dev.Cores(),
		MemBytes:      s.dev.Memory().Size(),
		TLBEntries:    s.dev.Cores() * TLBEntriesPerCore,
		CacheWays:     DefaultCacheWays,
		AccelClusters: s.dev.AccelClusters(),
	}
}

func (s *SNIC) MemBytes() uint64  { return s.dev.Memory().Size() }
func (s *SNIC) FrameSize() uint64 { return s.dev.Memory().FrameSize() }
func (s *SNIC) Cores() int        { return s.dev.Cores() }
func (s *SNIC) FreeCores() int    { return s.dev.FreeCores() }
func (s *SNIC) Live() int         { return s.dev.LiveNFs() }

func (s *SNIC) CachePolicy() cache.Policy { return cache.Static }

func (s *SNIC) NewBusArbiter(clients int) bus.Arbiter {
	return bus.NewTemporal(clients, 60, 10)
}

func (s *SNIC) BusOp(client int, now uint64) (uint64, error) {
	return s.bus.op(client, now)
}

func (s *SNIC) AcceleratorOp(id FuncID, now uint64) (done, waited uint64) {
	start := now
	if f := s.accelFree[id]; f > start {
		start = f
	}
	s.accelFree[id] = start + accelOpCost
	return start + accelOpCost, 0 // private cluster: no cross-tenant queueing
}
