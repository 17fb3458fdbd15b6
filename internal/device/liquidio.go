package device

import (
	"fmt"
	"math"

	"snic/internal/baseline"
	"snic/internal/mem"
)

func init() {
	// SE-S: bootloader-installed NFs, all privileged, xkphys everywhere.
	Register("liquidio-ses", func(spec Spec) (NIC, error) {
		return newLiquidIO(spec, "liquidio-ses", baseline.SES, 0)
	})
	// SE-UM: NFs are Linux processes. xkphys stays enabled (the §3.3
	// attack configuration), and the kernel demand-pages the processes —
	// which is the controlled-channel prerequisite.
	Register("liquidio-seum", func(spec Spec) (NIC, error) {
		return newLiquidIO(spec, "liquidio-seum", baseline.SEUM, DemandPaging)
	})
}

// liquidIO adapts the Cavium model. Function memory comes from the
// shared buffer allocator, so every reservation is visible in the
// DRAM-resident metadata table — the state the §3.3 scans walk.
type liquidIO struct {
	commBase
	l *baseline.LiquidIO
}

func newLiquidIO(spec Spec, model string, mode baseline.Mode, extraCaps Capability) (*liquidIO, error) {
	l, err := baseline.NewLiquidIO(spec.MemBytes, mode, true)
	if err != nil {
		return nil, err
	}
	d := &liquidIO{
		commBase: newCommBase(model, extraCaps, spec.Cores),
		l:        l,
	}
	d.res = commodityResources(spec.Cores, d.MemBytes())
	return d, nil
}

func (d *liquidIO) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	if spec.MemBytes > math.MaxUint32 {
		return 0, fmt.Errorf("device: %s reservation too large", d.model)
	}
	mask, err := d.cores.pick(spec.CoreMask)
	if err != nil {
		return 0, err
	}
	addr, err := d.l.AllocBuf(d.nextID, uint32(spec.MemBytes), baseline.TagGeneric)
	if err != nil {
		return 0, err
	}
	if err := d.l.Memory().Write(addr, spec.Image); err != nil {
		return 0, err
	}
	fs := d.l.Memory().FrameSize()
	region := mem.Range{Start: addr, Frames: (spec.MemBytes + fs - 1) / fs}
	return d.register(spec, region, mask)
}

func (d *liquidIO) Teardown(id FuncID) error {
	// The shared allocator has no free(): metadata lingers and the heap
	// only grows, so a torn-down function's bytes stay in DRAM for the
	// next scan — faithfully non-scrubbing.
	return d.unregister(id)
}

func (d *liquidIO) Read(id FuncID, off uint64, buf []byte) error {
	f, err := d.checkAccess(id, off, len(buf))
	if err != nil {
		return err
	}
	return d.l.Memory().Read(f.region.Start+mem.Addr(off), buf)
}

func (d *liquidIO) Write(id FuncID, off uint64, data []byte) error {
	f, err := d.checkAccess(id, off, len(data))
	if err != nil {
		return err
	}
	return d.l.Memory().Write(f.region.Start+mem.Addr(off), data)
}

func (d *liquidIO) Inject(frame []byte) (FuncID, error) {
	f, err := d.steerFrame(frame)
	if err != nil || f == nil {
		return 0, err
	}
	// Packet buffers come from the shared pool, tagged in the metadata
	// table like the real allocator's.
	addr, err := d.l.AllocBuf(f.id, uint32(len(frame)), baseline.TagPacket)
	if err != nil {
		return 0, err
	}
	if err := d.l.Memory().Write(addr, frame); err != nil {
		return 0, err
	}
	f.frames = append(f.frames, frameRef{addr: addr, n: len(frame)})
	return f.id, nil
}

func (d *liquidIO) Retrieve(id FuncID, dst []byte) ([]byte, error) {
	fr, err := d.popFrame(id)
	if err != nil {
		return nil, err
	}
	buf := frameBuf(dst, fr.n)
	if err := d.l.Memory().Read(fr.addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ProbeRead: xkphys exposes all of physical memory to every core (§3.2).
func (d *liquidIO) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.l.XkphysRead(id, pa, buf)
}

func (d *liquidIO) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.l.XkphysWrite(id, pa, data)
}

// MgmtRead: privileged software sees plain DRAM.
func (d *liquidIO) MgmtRead(pa mem.Addr, buf []byte) error {
	return d.l.Memory().Read(pa, buf)
}

func (d *liquidIO) MemBytes() uint64  { return d.l.Memory().Size() }
func (d *liquidIO) FrameSize() uint64 { return d.l.Memory().FrameSize() }
