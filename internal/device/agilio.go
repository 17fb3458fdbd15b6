package device

import (
	"snic/internal/baseline"
	"snic/internal/mem"
)

func init() {
	Register("agilio", func(spec Spec) (NIC, error) { return newAgilio(spec) })
}

// agilio adapts the Netronome model: raw physical addressing from every
// island, an unarbitrated bus with a hard-crash watchdog, and one shared
// crypto accelerator. Bus and accelerator calls delegate to the baseline
// model so its watchdog/crash state stays authoritative.
type agilio struct {
	commBase
	a *baseline.Agilio
}

func newAgilio(spec Spec) (*agilio, error) {
	a, err := baseline.NewAgilio(spec.MemBytes, spec.Islands)
	if err != nil {
		return nil, err
	}
	d := &agilio{
		commBase: newCommBase("agilio", 0, spec.Cores),
		a:        a,
	}
	d.res = commodityResources(spec.Cores, d.MemBytes())
	return d, nil
}

func (d *agilio) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	mask, err := d.cores.pick(spec.CoreMask)
	if err != nil {
		return 0, err
	}
	region, err := d.a.Memory().AllocBytes(d.nextID, spec.MemBytes)
	if err != nil {
		return 0, err
	}
	if err := d.a.Memory().Write(region.Start, spec.Image); err != nil {
		return 0, err
	}
	return d.register(spec, region, mask)
}

func (d *agilio) Teardown(id FuncID) error {
	if err := d.unregister(id); err != nil {
		return err
	}
	d.a.Memory().ReleaseAll(id)
	return nil
}

func (d *agilio) Read(id FuncID, off uint64, buf []byte) error {
	f, err := d.checkAccess(id, off, len(buf))
	if err != nil {
		return err
	}
	return d.a.Memory().Read(f.region.Start+mem.Addr(off), buf)
}

func (d *agilio) Write(id FuncID, off uint64, data []byte) error {
	f, err := d.checkAccess(id, off, len(data))
	if err != nil {
		return err
	}
	return d.a.Memory().Write(f.region.Start+mem.Addr(off), data)
}

func (d *agilio) Inject(frame []byte) (FuncID, error) {
	f, err := d.steerFrame(frame)
	if err != nil || f == nil {
		return 0, err
	}
	addr, err := d.stageFrame(f, frame)
	if err != nil {
		return 0, err
	}
	f.frames = append(f.frames, frameRef{addr: addr, n: len(frame)})
	return f.id, nil
}

// stageFrame copies a delivered frame into the upper half of the
// receiver's region (a simple per-function RX area; the memory is still
// plain shared DRAM, which is what the corruption attack exploits).
func (d *agilio) stageFrame(f *commFunc, frame []byte) (mem.Addr, error) {
	off := f.bytes/2 + f.frameOff
	if off+uint64(len(frame)) > f.bytes {
		return 0, ErrNoFrame
	}
	addr := f.region.Start + mem.Addr(off)
	if err := d.a.Memory().Write(addr, frame); err != nil {
		return 0, err
	}
	f.frameOff += mem.AlignUp(uint64(len(frame)), 64)
	return addr, nil
}

func (d *agilio) Retrieve(id FuncID, dst []byte) ([]byte, error) {
	fr, err := d.popFrame(id)
	if err != nil {
		return nil, err
	}
	buf := frameBuf(dst, fr.n)
	if err := d.a.Memory().Read(fr.addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ProbeRead: islands address the shared memory banks physically, with no
// per-function check (§3.2).
func (d *agilio) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.a.Memory().Read(pa, buf)
}

func (d *agilio) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.a.Memory().Write(pa, data)
}

func (d *agilio) MgmtRead(pa mem.Addr, buf []byte) error {
	return d.a.Memory().Read(pa, buf)
}

func (d *agilio) MemBytes() uint64  { return d.a.Memory().Size() }
func (d *agilio) FrameSize() uint64 { return d.a.Memory().FrameSize() }

// BusOp delegates to the baseline model's unarbitrated bus and its
// watchdog/crash state.
func (d *agilio) BusOp(client int, now uint64) (uint64, error) {
	return d.a.BusOp(client, now)
}

// AcceleratorOp delegates to the baseline's single shared crypto unit.
func (d *agilio) AcceleratorOp(_ FuncID, now uint64) (done, waited uint64) {
	return d.a.CryptoOp(now)
}
