package device

import (
	"snic/internal/baseline"
	"snic/internal/mem"
)

func init() {
	Register("bluefield", func(spec Spec) (NIC, error) { return newBlueField(spec) })
}

// blueField adapts the TrustZone model. Function state lives in
// secure-world trustlets: the normal world (and so any co-tenant
// function issuing raw-physical probes) is blocked by the address-space
// controller, but the secure-world management OS reads everything —
// the §3.2 asymmetry. The Linux kernel demand-pages normal-world
// processes, so the controlled-channel prerequisite holds.
type blueField struct {
	commBase
	b *baseline.BlueField
}

func newBlueField(spec Spec) (*blueField, error) {
	b, err := baseline.NewBlueField(spec.MemBytes, spec.SecureBytes)
	if err != nil {
		return nil, err
	}
	d := &blueField{
		commBase: newCommBase("bluefield", SingleOwnerRAM|DemandPaging, spec.Cores),
		b:        b,
	}
	d.res = commodityResources(spec.Cores, d.MemBytes())
	return d, nil
}

func (d *blueField) Launch(spec FuncSpec) (FuncID, error) {
	spec.defaults()
	mask, err := d.cores.pick(spec.CoreMask)
	if err != nil {
		return 0, err
	}
	region, err := d.b.CreateTrustlet(d.nextID, spec.MemBytes)
	if err != nil {
		return 0, err
	}
	if err := d.b.SecureWrite(region.Start, spec.Image); err != nil {
		return 0, err
	}
	return d.register(spec, region, mask)
}

func (d *blueField) Teardown(id FuncID) error {
	// OP-TEE frees the trustlet's pages but nothing scrubs them; the
	// secure allocator here is bump-only, like the baseline model.
	return d.unregister(id)
}

func (d *blueField) Read(id FuncID, off uint64, buf []byte) error {
	f, err := d.checkAccess(id, off, len(buf))
	if err != nil {
		return err
	}
	return d.b.SecureRead(f.region.Start+mem.Addr(off), buf)
}

func (d *blueField) Write(id FuncID, off uint64, data []byte) error {
	f, err := d.checkAccess(id, off, len(data))
	if err != nil {
		return err
	}
	return d.b.SecureWrite(f.region.Start+mem.Addr(off), data)
}

func (d *blueField) Inject(frame []byte) (FuncID, error) {
	f, err := d.steerFrame(frame)
	if err != nil || f == nil {
		return 0, err
	}
	off := f.bytes/2 + f.frameOff
	if off+uint64(len(frame)) > f.bytes {
		return 0, ErrNoFrame
	}
	addr := f.region.Start + mem.Addr(off)
	if err := d.b.SecureWrite(addr, frame); err != nil {
		return 0, err
	}
	f.frameOff += mem.AlignUp(uint64(len(frame)), 64)
	f.frames = append(f.frames, frameRef{addr: addr, n: len(frame)})
	return f.id, nil
}

func (d *blueField) Retrieve(id FuncID, dst []byte) ([]byte, error) {
	fr, err := d.popFrame(id)
	if err != nil {
		return nil, err
	}
	buf := frameBuf(dst, fr.n)
	if err := d.b.SecureRead(fr.addr, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ProbeRead: a malicious co-tenant function runs in the normal world,
// and the TrustZone address-space controller blocks it from secure
// memory — BlueField's one isolation property that holds.
func (d *blueField) ProbeRead(id FuncID, pa mem.Addr, buf []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.b.NormalRead(pa, buf)
}

func (d *blueField) ProbeWrite(id FuncID, pa mem.Addr, data []byte) error {
	if _, ok := d.funcs[id]; !ok {
		return ErrNoFunc
	}
	return d.b.NormalWrite(pa, data)
}

// MgmtRead: the secure-world management OS reads anything, including
// every trustlet — the hole S-NIC's denylist closes.
func (d *blueField) MgmtRead(pa mem.Addr, buf []byte) error {
	return d.b.SecureRead(pa, buf)
}

func (d *blueField) MemBytes() uint64  { return d.b.Memory().Size() }
func (d *blueField) FrameSize() uint64 { return d.b.Memory().FrameSize() }
