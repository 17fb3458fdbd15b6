// Package snic implements the paper's primary contribution: the S-NIC
// device, whose trusted instructions bind network functions to virtual
// smart NICs (§4, Table 1).
//
//   - nf_launch (Device.Launch) atomically reserves cores, single-owner
//     RAM, RX/TX buffer space, accelerator clusters, and a DMA bank;
//     installs and locks every TLB bank; denylists the function's pages
//     against the management core; accumulates the launch hash; and
//     returns the function id.
//   - nf_attest (Device.AttestNF) signs the launch hash into an
//     Appendix-A quote.
//   - nf_teardown (Device.Teardown) atomically releases everything,
//     scrubbing RAM, registers, and cache lines so nothing leaks to the
//     next tenant.
//
// The device also carries the calibrated instruction-latency model that
// regenerates Figure 6 (§C): SHA digesting at ~470 MB/s on the security
// coprocessor dominates nf_launch; memory scrubbing at ~6.6 GB/s
// dominates nf_destroy; nf_attest is a fixed ~5.6 ms RSA signature.
// These latencies are simulated time, not host cost: the host work of
// nf_attest is the real quote internal/attest computes (a group-14 DH
// contribution and an ECDSA signature), and no simulated figure depends
// on how long that takes.
package snic

import (
	"errors"
	"fmt"
	"math/big"

	"snic/internal/accel"
	"snic/internal/attest"
	"snic/internal/cache"
	"snic/internal/dma"
	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/pagealloc"
	"snic/internal/pktio"
	"snic/internal/tlb"
)

// Config describes the physical NIC being built.
type Config struct {
	Cores         int    // programmable cores (the management core is separate)
	MemBytes      uint64 // general-purpose DRAM
	FrameSize     uint64 // ownership granularity (default 128 KB)
	RXBufBytes    uint64 // physical RX port buffer (default 2 MB)
	TXBufBytes    uint64 // physical TX port buffer (default 1 MB)
	DPIThreads    int    // hardware threads per accelerator (default 64)
	ZIPThreads    int
	RAIDThreads   int
	CryptoThreads int
	ClusterSize   int // threads per cluster (default 16)
	Serial        string
}

func (c *Config) defaults() {
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.MemBytes == 0 {
		c.MemBytes = 1 << 30
	}
	if c.FrameSize == 0 {
		c.FrameSize = 128 << 10
	}
	if c.RXBufBytes == 0 {
		c.RXBufBytes = 2 << 20
	}
	if c.TXBufBytes == 0 {
		c.TXBufBytes = 1 << 20
	}
	if c.DPIThreads == 0 {
		c.DPIThreads = 64
	}
	if c.ZIPThreads == 0 {
		c.ZIPThreads = 64
	}
	if c.RAIDThreads == 0 {
		c.RAIDThreads = 64
	}
	if c.CryptoThreads == 0 {
		c.CryptoThreads = 64
	}
	if c.ClusterSize == 0 {
		c.ClusterSize = 16
	}
	if c.Serial == "" {
		c.Serial = "SNIC-SIM-0"
	}
}

// Rates is the Figure 6 latency calibration (seconds-denominated).
type Rates struct {
	DigestBytesPerSec float64 // security-coprocessor SHA-256
	ScrubBytesPerSec  float64 // teardown memory zeroing
	TLBSetupSec       float64 // TLB setup + config reading
	DenylistSec       float64 // denylist install
	AllowlistSec      float64 // allowlist (teardown)
	RSASignSec        float64 // nf_attest signing
	AttestSHASec      float64 // nf_attest hash
}

// DefaultRates returns the Appendix-C calibration.
func DefaultRates() Rates {
	return Rates{
		DigestBytesPerSec: 470e6,
		ScrubBytesPerSec:  6.6e9,
		TLBSetupSec:       0.0196e-3,
		DenylistSec:       0.0044e-3,
		AllowlistSec:      0.0038e-3,
		RSASignSec:        5.596e-3,
		AttestSHASec:      0.004e-3,
	}
}

// ID names a launched network function.
type ID = mem.Owner

// Errors of the owner-scoped access paths.
var (
	// ErrNoNF reports an id that names no live function.
	ErrNoNF = errors.New("snic: no NF")
	// ErrRxEmpty reports an empty receive ring (NFRecv).
	ErrRxEmpty = errors.New("snic: receive ring empty")
)

func noNF(id ID) error { return fmt.Errorf("%w %d", ErrNoNF, id) }

// LaunchSpec is the argument block of nf_launch (Table 1): core mask,
// initial state, packet-pipeline config, and accelerator reservations.
type LaunchSpec struct {
	CoreMask uint64 // bitmask over programmable cores
	Image    []byte // initial code+data, staged into NIC RAM by the NIC OS
	MemBytes uint64 // total DRAM reservation (>= len(Image))
	PageSet  pagealloc.PageSet

	// Packet pipeline (pkt_pipeline_config).
	RXBufBytes uint64
	TXBufBytes uint64
	Rules      []pktio.MatchSpec
	RingSlots  int
	RingSlot   int // slot size in bytes

	// Accelerator reservations (accel_mask).
	DPIClusters    int
	ZIPClusters    int
	RAIDClusters   int
	CryptoClusters int

	// DMACore, if >= 0, binds that core's DMA bank with the given
	// host-sanctioned window.
	DMACore   int
	DMAWindow *dma.HostRegion
}

// LaunchReport breaks down the simulated nf_launch latency (Figure 6).
// PoolHit records whether the reservation was served from the warm
// arena (always false on the default path).
type LaunchReport struct {
	ID         ID
	TLBSetupMS float64
	DenylistMS float64
	DigestMS   float64
	PoolHit    bool
}

// TotalMS sums the phases.
func (r LaunchReport) TotalMS() float64 { return r.TLBSetupMS + r.DenylistMS + r.DigestMS }

// TeardownReport breaks down nf_destroy latency (Figure 6).
type TeardownReport struct {
	AllowlistMS float64
	ScrubMS     float64
}

// TotalMS sums the phases.
func (r TeardownReport) TotalMS() float64 { return r.AllowlistMS + r.ScrubMS }

// VirtualNIC is the per-function resource bundle.
type VirtualNIC struct {
	ID      ID
	Cores   []int
	Mem     mem.Range
	TLB     *tlb.Bank // locked core-side TLB
	VPP     *pktio.VPP
	DPI     []*accel.Cluster
	ZIP     []*accel.Cluster
	RAIDs   []*accel.Cluster
	Crypto  []*accel.Cluster
	DMABank *dma.Bank
	Hash    [32]byte
}

// Device is the S-NIC.
type Device struct {
	cfg    Config
	pm     *mem.Physical
	deny   *tlb.Denylist
	mgmt   *tlb.GuardedBank
	sw     *pktio.Switch
	dmaC   *dma.Controller
	dpi    *accel.Accelerator
	zip    *accel.Accelerator
	raid   *accel.Accelerator
	crypto *accel.Accelerator
	hw     *attest.Device
	rates  Rates

	coreOwner []ID // mem.Free = unallocated
	nfs       map[ID]*VirtualNIC
	nextID    ID
	sendBuf   []byte // SendLocal's staging buffer

	// SharedCaches lists caches whose per-domain lines must be flushed at
	// teardown (wired up by experiments that attach a timing model).
	SharedCaches []*cache.Cache
	// DomainOf maps an NF id to its cache/bus domain index.
	DomainOf func(ID) int

	// obs state; zero until Observe attaches a collector. The clock
	// advances by each trusted instruction's modeled latency, so span
	// stamps are pure functions of the instruction stream.
	obsReg  *obs.Registry
	obsTr   *obs.Tracer
	obsClk  obs.Clock
	obsLive *obs.Gauge

	// Churn fast paths (fastpath.go); all off by default so the
	// trusted-instruction model stays bit-identical to the paper
	// calibration.
	fp          FastPaths
	ctrPoolHit  *obs.Counter
	ctrPoolMiss *obs.Counter
}

// Observe attaches the device to a collector: trusted instructions
// (nf_launch, nf_attest, nf_teardown) emit cycle-stamped phase spans on
// the given trace track, matching the Figure 6 breakdown, and the
// switch, management MMU, accelerators, and per-NF TLB banks gain
// metric counters under the device serial. Concurrent devices must use
// distinct tracks (and serials, if their metrics should stay separate).
// A nil reg leaves the device detached.
func (d *Device) Observe(reg *obs.Registry, track string) {
	if reg == nil {
		return
	}
	d.obsReg = reg
	d.obsTr = reg.Tracer(track)
	d.obsLive = reg.Gauge(obs.Label{Device: d.cfg.Serial, Owner: "-", Component: "snic", Name: "live_nfs"})
	d.sw.Observe(reg, d.cfg.Serial)
	d.mgmt.Observe(reg, d.cfg.Serial, "mgmt")
	d.dpi.Observe(reg, d.cfg.Serial)
	d.zip.Observe(reg, d.cfg.Serial)
	d.raid.Observe(reg, d.cfg.Serial)
	d.crypto.Observe(reg, d.cfg.Serial)
	d.ensureFastPathObs()
}

// span stamps one trusted-instruction phase of ms simulated
// milliseconds onto the trace, advancing the device's cycle clock.
func (d *Device) span(name string, ms float64) {
	if d.obsTr == nil {
		return
	}
	dur := obs.MSToCycles(ms)
	d.obsTr.Span("snic", name, d.obsClk.Tick(dur), dur)
}

// New builds an S-NIC, manufacturing its attestation identity under
// vendor.
func New(cfg Config, vendor *attest.Vendor) (*Device, error) {
	cfg.defaults()
	pm, err := mem.NewPhysical(cfg.MemBytes, cfg.FrameSize)
	if err != nil {
		return nil, err
	}
	mkAccel := func(kind accel.Kind, threads int) (*accel.Accelerator, error) {
		return accel.New(kind, threads, cfg.ClusterSize)
	}
	dpiA, err := mkAccel(accel.DPI, cfg.DPIThreads)
	if err != nil {
		return nil, err
	}
	zipA, err := mkAccel(accel.ZIP, cfg.ZIPThreads)
	if err != nil {
		return nil, err
	}
	raidA, err := mkAccel(accel.RAID, cfg.RAIDThreads)
	if err != nil {
		return nil, err
	}
	cryptoA, err := mkAccel(accel.CRYPTO, cfg.CryptoThreads)
	if err != nil {
		return nil, err
	}
	hw, err := attest.NewDevice(vendor, cfg.Serial)
	if err != nil {
		return nil, err
	}
	deny := tlb.NewDenylist(cfg.FrameSize)
	return &Device{
		cfg:       cfg,
		pm:        pm,
		deny:      deny,
		mgmt:      tlb.NewGuardedBank(1024, deny),
		sw:        pktio.NewSwitch(pm, cfg.RXBufBytes, cfg.TXBufBytes),
		dmaC:      dma.NewController(cfg.Cores),
		dpi:       dpiA,
		zip:       zipA,
		raid:      raidA,
		crypto:    cryptoA,
		hw:        hw,
		rates:     DefaultRates(),
		coreOwner: make([]ID, cfg.Cores),
		nfs:       make(map[ID]*VirtualNIC),
		nextID:    mem.FirstNF,
	}, nil
}

// Memory exposes the physical DRAM (for experiment harnesses; NF and OS
// access paths go through the TLB-checked methods below).
func (d *Device) Memory() *mem.Physical { return d.pm }

// Switch exposes the packet input/output module.
func (d *Device) Switch() *pktio.Switch { return d.sw }

// Denylist exposes the hardware-private denylist (read-only use in tests).
func (d *Device) Denylist() *tlb.Denylist { return d.deny }

// NF returns a launched function's virtual NIC.
func (d *Device) NF(id ID) *VirtualNIC { return d.nfs[id] }

// Cores returns the number of programmable cores.
func (d *Device) Cores() int { return d.cfg.Cores }

// AccelClusters sums the reservable clusters across the device's four
// accelerators (§4.4) — the per-function reservation budget a
// fleet-level placer packs against.
func (d *Device) AccelClusters() int {
	return d.dpi.NumClusters() + d.zip.NumClusters() +
		d.raid.NumClusters() + d.crypto.NumClusters()
}

// FreeCores counts unallocated programmable cores.
func (d *Device) FreeCores() int {
	n := 0
	for _, o := range d.coreOwner {
		if o == mem.Free {
			n++
		}
	}
	return n
}

// SetRates overrides the latency calibration.
func (d *Device) SetRates(r Rates) { d.rates = r }

// Launch is nf_launch. It validates every reservation, then installs the
// function atomically: on any failure all partial state is rolled back
// and an error is returned.
func (d *Device) Launch(spec LaunchSpec) (LaunchReport, error) {
	if spec.CoreMask == 0 {
		return LaunchReport{}, fmt.Errorf("snic: empty core mask")
	}
	if spec.MemBytes < uint64(len(spec.Image)) || spec.MemBytes == 0 {
		return LaunchReport{}, fmt.Errorf("snic: memory reservation %d < image %d", spec.MemBytes, len(spec.Image))
	}
	if len(spec.PageSet) == 0 {
		spec.PageSet = pagealloc.PageSet{d.cfg.FrameSize}
	}
	if spec.RingSlots == 0 {
		spec.RingSlots = 64
	}
	if spec.RingSlot == 0 {
		spec.RingSlot = 2048
	}
	// 1. Cores: requested cores must exist and be unassigned.
	var cores []int
	for i := 0; i < 64; i++ {
		if spec.CoreMask&(1<<i) == 0 {
			continue
		}
		if i >= d.cfg.Cores {
			return LaunchReport{}, fmt.Errorf("snic: core %d does not exist", i)
		}
		if d.coreOwner[i] != mem.Free {
			return LaunchReport{}, fmt.Errorf("snic: core %d already bound to NF %d", i, d.coreOwner[i])
		}
		cores = append(cores, i)
	}
	id := d.nextID

	// Rollback bookkeeping: each completed step appends an undo.
	var undo []func()
	fail := func(err error) (LaunchReport, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return LaunchReport{}, err
	}

	// 2. Memory: single-owner frames, image copied in. With the warm
	// pool on, the reservation is served from the scrubbed arena when a
	// parked run fits.
	region, poolHit, err := d.allocNFBytes(id, spec.MemBytes)
	if err != nil {
		return fail(fmt.Errorf("snic: %w", err))
	}
	undo = append(undo, func() { d.pm.ReleaseAll(id) })
	if err := d.pm.Write(region.Start, spec.Image); err != nil {
		return fail(err)
	}

	// 3. Core TLB: variable-page-size entries covering exactly the
	// reservation, then locked.
	plan, err := pagealloc.PlanSegment(spec.MemBytes, spec.PageSet)
	if err != nil {
		return fail(err)
	}
	bank := tlb.NewBank(plan.Entries + 1)
	if d.obsReg != nil {
		bank.Observe(d.obsReg, d.cfg.Serial, fmt.Sprintf("nf%d", id))
	}
	va := uint64(0)
	for _, m := range plan.Pages {
		for i := 0; i < m.Count; i++ {
			e := tlb.Entry{
				VA:   tlb.VAddr(va),
				PA:   region.Start + mem.Addr(va),
				Size: m.PageSize,
				Perm: tlb.PermRW | tlb.PermExec,
			}
			if err := bank.Install(e); err != nil {
				return fail(fmt.Errorf("snic: core TLB: %w", err))
			}
			va += m.PageSize
		}
	}
	bank.Lock()

	// 4. Denylist the function's pages against the management core.
	d.deny.Deny(region.Start, region.Frames*d.cfg.FrameSize, id)
	undo = append(undo, func() { d.deny.AllowOwner(id) })

	// 5. Virtual packet pipeline + switching rules.
	ringBase := tlb.VAddr(0) // ring lives at the start of the NF's memory
	schedEntries := []tlb.Entry{{
		VA:   ringBase,
		PA:   region.Start,
		Size: mem.AlignUp(uint64(spec.RingSlots*spec.RingSlot), d.cfg.FrameSize),
		Perm: tlb.PermRW,
	}}
	if uint64(spec.RingSlots*spec.RingSlot) > spec.MemBytes {
		return fail(fmt.Errorf("snic: packet ring larger than NF memory"))
	}
	rxb := spec.RXBufBytes
	if rxb == 0 {
		rxb = 256 << 10
	}
	txb := spec.TXBufBytes
	if txb == 0 {
		txb = 256 << 10
	}
	vpp, err := d.sw.CreateVPP(id, rxb, txb, schedEntries, ringBase, spec.RingSlots, spec.RingSlot)
	if err != nil {
		return fail(err)
	}
	undo = append(undo, func() { d.sw.DestroyVPP(id) })
	for _, specRule := range spec.Rules {
		if err := d.sw.AddRule(pktio.Rule{Spec: specRule, Target: id}); err != nil {
			return fail(err)
		}
	}

	// 6. Accelerator clusters, each behind the NF's own mappings.
	acEntries := bank.Entries()
	var dpiCl, zipCl, raidCl, cryptoCl []*accel.Cluster
	if spec.DPIClusters > 0 {
		if dpiCl, err = d.dpi.Alloc(id, spec.DPIClusters, acEntries); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { d.dpi.Release(id) })
	}
	if spec.ZIPClusters > 0 {
		if zipCl, err = d.zip.Alloc(id, spec.ZIPClusters, acEntries); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { d.zip.Release(id) })
	}
	if spec.RAIDClusters > 0 {
		if raidCl, err = d.raid.Alloc(id, spec.RAIDClusters, acEntries); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { d.raid.Release(id) })
	}
	if spec.CryptoClusters > 0 {
		if cryptoCl, err = d.crypto.Alloc(id, spec.CryptoClusters, acEntries); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { d.crypto.Release(id) })
	}

	// 7. DMA bank.
	var bankDMA *dma.Bank
	if spec.DMAWindow != nil {
		if spec.DMACore < 0 || spec.DMACore >= d.cfg.Cores || spec.CoreMask&(1<<spec.DMACore) == 0 {
			return fail(fmt.Errorf("snic: DMA core %d not in the function's core mask", spec.DMACore))
		}
		bankDMA = d.dmaC.Bank(spec.DMACore)
		if err := bankDMA.Bind(id, acEntries, spec.DMAWindow); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { bankDMA.Unbind() })
	}

	// 8. Cumulative launch hash over everything that defines the function.
	var lh attest.LaunchHash
	lh.Add("image", spec.Image)
	lh.Add("coremask", u64bytes(spec.CoreMask))
	lh.Add("membytes", u64bytes(spec.MemBytes))
	for _, r := range spec.Rules {
		lh.Add("rule", []byte(fmt.Sprintf("%+v", r)))
	}
	lh.Add("accel", []byte(fmt.Sprintf("dpi=%d zip=%d raid=%d crypto=%d",
		spec.DPIClusters, spec.ZIPClusters, spec.RAIDClusters, spec.CryptoClusters)))

	// Commit: bind cores last (nothing below can fail).
	for _, c := range cores {
		d.coreOwner[c] = id
	}
	v := &VirtualNIC{
		ID: id, Cores: cores, Mem: region, TLB: bank, VPP: vpp,
		DPI: dpiCl, ZIP: zipCl, RAIDs: raidCl, Crypto: cryptoCl,
		DMABank: bankDMA,
		Hash:    lh.Sum(),
	}
	d.nfs[id] = v
	d.nextID++

	r := LaunchReport{
		ID:         id,
		TLBSetupMS: d.rates.TLBSetupSec * 1e3,
		DenylistMS: d.rates.DenylistSec * 1e3,
		DigestMS:   d.digestMS(spec, poolHit),
		PoolHit:    poolHit,
	}
	// The trace mirrors the report phase for phase; the cross-check test
	// in internal/exp holds the two accountings together.
	d.span("launch/tlb_setup", r.TLBSetupMS)
	d.span("launch/denylist", r.DenylistMS)
	d.span("launch/sha_digest", r.DigestMS)
	d.obsLive.Set(int64(len(d.nfs)))
	return r, nil
}

// Teardown is nf_teardown: atomically destroy the NF, scrubbing all its
// state.
func (d *Device) Teardown(id ID) (TeardownReport, error) {
	v, ok := d.nfs[id]
	if !ok {
		return TeardownReport{}, noNF(id)
	}
	for _, c := range v.Cores {
		d.coreOwner[c] = mem.Free
	}
	d.sw.DestroyVPP(id)
	d.dpi.Release(id)
	d.zip.Release(id)
	d.raid.Release(id)
	d.crypto.Release(id)
	if v.DMABank != nil {
		v.DMABank.Unbind()
	}
	scrubbed := d.releaseNFMem(id) // zeroes pages (parking them if the warm pool is on)
	d.deny.AllowOwner(id)
	// Zero cache lines (the microarchitectural half of the scrub).
	if d.DomainOf != nil {
		for _, c := range d.SharedCaches {
			c.FlushDomain(d.DomainOf(id))
		}
	}
	delete(d.nfs, id)
	scrubMS := float64(scrubbed) / d.rates.ScrubBytesPerSec * 1e3
	if stripes := d.scrubStripes(); stripes > 1 {
		scrubMS /= float64(stripes)
	}
	r := TeardownReport{
		AllowlistMS: d.rates.AllowlistSec * 1e3,
		ScrubMS:     scrubMS,
	}
	d.span("teardown/allowlist", r.AllowlistMS)
	d.span("teardown/scrub", r.ScrubMS)
	d.obsLive.Set(int64(len(d.nfs)))
	return r, nil
}

// AttestNF is nf_attest: sign the function's launch hash with the device
// attestation key. It returns the quote, the device-side DH secret
// (complete the exchange with attest.CompleteExchange), and the simulated
// instruction latency in milliseconds.
func (d *Device) AttestNF(id ID, nonce []byte) (attest.Quote, *big.Int, float64, error) {
	v, ok := d.nfs[id]
	if !ok {
		return attest.Quote{}, nil, 0, noNF(id)
	}
	q, x, err := d.hw.Attest(v.Hash, nonce)
	if err != nil {
		return attest.Quote{}, nil, 0, err
	}
	d.span("attest/sha", d.rates.AttestSHASec*1e3)
	d.span("attest/rsa_sign", d.rates.RSASignSec*1e3)
	latency := (d.rates.RSASignSec + d.rates.AttestSHASec) * 1e3
	return q, x, latency, nil
}

// translate resolves an n-byte access at va through the function's
// locked core TLB. The last byte must translate too: an access spanning
// past the locked mapping is a fatal miss, never a window onto the next
// frame.
func (v *VirtualNIC) translate(va tlb.VAddr, n int, perm tlb.Perm) (mem.Addr, error) {
	pa, err := v.TLB.Translate(va, perm)
	if err != nil {
		return 0, err
	}
	if n > 1 {
		if _, err := v.TLB.Translate(va+tlb.VAddr(n-1), perm); err != nil {
			return 0, err
		}
	}
	return pa, nil
}

// nfRead is NFRead on a resolved function.
func (d *Device) nfRead(v *VirtualNIC, va tlb.VAddr, buf []byte) error {
	pa, err := v.translate(va, len(buf), tlb.PermRead)
	if err != nil {
		return err
	}
	return d.pm.Read(pa, buf)
}

// NFRead reads the function's memory at va through its locked TLB — the
// path NF code itself uses. Other principals have no such path.
func (d *Device) NFRead(id ID, va tlb.VAddr, buf []byte) error {
	v, ok := d.nfs[id]
	if !ok {
		return noNF(id)
	}
	return d.nfRead(v, va, buf)
}

// NFWrite writes the function's memory at va through its locked TLB.
func (d *Device) NFWrite(id ID, va tlb.VAddr, data []byte) error {
	v, ok := d.nfs[id]
	if !ok {
		return noNF(id)
	}
	pa, err := v.translate(va, len(data), tlb.PermWrite)
	if err != nil {
		return err
	}
	return d.pm.Write(pa, data)
}

// NFRecv pops the function's next received descriptor and reads the
// frame through the function's locked TLB, as its own code would. The
// frame lands in dst[:n] when cap(dst) >= n and in a fresh slice
// otherwise. An empty ring is ErrRxEmpty.
func (d *Device) NFRecv(id ID, dst []byte) ([]byte, error) {
	v, ok := d.nfs[id]
	if !ok {
		return nil, noNF(id)
	}
	desc, ok := v.VPP.Pop()
	if !ok {
		return nil, ErrRxEmpty
	}
	buf := dst
	if cap(buf) < desc.Len {
		buf = make([]byte, desc.Len)
	}
	buf = buf[:desc.Len]
	if err := d.nfRead(v, desc.VA, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MgmtMap asks the management core's MMU to map a physical range; the
// dual-walk against the denylist rejects NF-owned memory (§4.2).
func (d *Device) MgmtMap(va tlb.VAddr, pa mem.Addr, size uint64) error {
	return d.mgmt.Install(tlb.Entry{VA: va, PA: pa, Size: size, Perm: tlb.PermRW})
}

// MgmtRead reads through the management core's MMU.
func (d *Device) MgmtRead(va tlb.VAddr, buf []byte) error {
	pa, err := d.mgmt.Translate(va, tlb.PermRead)
	if err != nil {
		return err
	}
	return d.pm.Read(pa, buf)
}

// MgmtUnmap flushes the management-core mapping covering va (a software
// TLB shootdown; the management bank is never locked).
func (d *Device) MgmtUnmap(va tlb.VAddr) bool { return d.mgmt.Evict(va) }

// MgmtWrite writes through the management core's MMU.
func (d *Device) MgmtWrite(va tlb.VAddr, data []byte) error {
	pa, err := d.mgmt.Translate(va, tlb.PermWrite)
	if err != nil {
		return err
	}
	return d.pm.Write(pa, data)
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b[:]
}

// SendLocal implements the §4.8 "extended version of S-NIC" for function
// chaining: NFs in different virtual NICs exchange data via localhost
// networking, with trusted hardware moving the message directly between
// the side-channel-isolated VPPs. No memory is ever shared: the source
// frame is read through the sender's locked TLB and written into the
// receiver's ring through the receiver's scheduler TLB, so the only
// information that crosses the boundary is the overt message content and
// its timing — exactly the residual channel the paper accepts for chains.
func (d *Device) SendLocal(from, to ID, va tlb.VAddr, n int) error {
	src, ok := d.nfs[from]
	if !ok {
		return noNF(from)
	}
	dst, ok := d.nfs[to]
	if !ok {
		return noNF(to)
	}
	if n <= 0 {
		return fmt.Errorf("snic: empty local send")
	}
	// The frame is staged in a device-owned buffer: PushLocal copies it
	// into the receiver's ring, so nothing retains it past this call.
	if cap(d.sendBuf) < n {
		d.sendBuf = make([]byte, n)
	}
	frame := d.sendBuf[:n]
	off := 0
	for off < n {
		chunk := n - off
		if chunk > 1024 {
			chunk = 1024
		}
		pa, err := src.TLB.Translate(va+tlb.VAddr(off), tlb.PermRead)
		if err != nil {
			return fmt.Errorf("snic: sender fault: %w", err)
		}
		if _, err := src.TLB.Translate(va+tlb.VAddr(off+chunk-1), tlb.PermRead); err != nil {
			return fmt.Errorf("snic: sender fault: %w", err)
		}
		if err := d.pm.Read(pa, frame[off:off+chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return dst.VPP.PushLocal(d.pm, frame)
}

// Reboot power-cycles the NIC: every live function is torn down (with
// full scrubbing) and the attestation key is regenerated, exactly as
// Appendix A specifies ("After a reboot, the NIC generates a random
// asymmetric key pair known as the attestation key pair"). Quotes signed
// before the reboot no longer chain to the device's current AK.
func (d *Device) Reboot() error {
	for id := range d.nfs {
		if _, err := d.Teardown(id); err != nil {
			return err
		}
	}
	d.pm.DrainPool() // a power cycle forgets the warm arena
	d.nextID = mem.FirstNF
	return d.hw.Reboot()
}

// LiveNFs returns the number of running functions.
func (d *Device) LiveNFs() int { return len(d.nfs) }
