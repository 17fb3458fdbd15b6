package device

import (
	"snic/internal/attest"
	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
)

// commFunc is the per-function bookkeeping the commodity adapters keep
// in software (there is no trusted hardware tracking it, which is rather
// the point).
type commFunc struct {
	id       FuncID
	name     string
	region   mem.Range
	bytes    uint64
	rules    []pktio.MatchSpec
	frames   []frameRef // pending frames; frames[next] is the oldest
	next     int
	frameOff uint64 // next free slot in the region's RX staging area
}

// frameRef locates one delivered frame in device memory.
type frameRef struct {
	addr mem.Addr
	n    int
}

// commBase carries the bookkeeping all three commodity adapters share:
// function table, launch order (steering precedence), core pool, and the
// shared bus/accelerator substrates. The adapters embed it and override
// what their architecture does differently.
type commBase struct {
	model  string
	caps   Capability
	cores  *corePool
	funcs  map[FuncID]*commFunc
	order  []*commFunc // launch order: steering precedence
	nextID FuncID
	bus    *busSim
	accel  sharedAccel
	res    Resources // schedulable capacity, fixed at construction
}

func newCommBase(model string, caps Capability, cores int) commBase {
	return commBase{
		model:  model,
		caps:   caps,
		cores:  newCorePool(cores),
		funcs:  make(map[FuncID]*commFunc),
		nextID: mem.FirstNF,
		bus:    newBusSim(bus.NewFIFO(), cores),
	}
}

func (c *commBase) Model() string        { return c.model }
func (c *commBase) Caps() Capability     { return c.caps }
func (c *commBase) Resources() Resources { return c.res }
func (c *commBase) Cores() int           { return len(c.cores.owner) }
func (c *commBase) FreeCores() int       { return c.cores.free() }
func (c *commBase) Live() int            { return len(c.funcs) }

// Attest: commodity models have no launch measurement to sign.
func (c *commBase) Attest(FuncID, []byte) (attest.Quote, error) {
	return attest.Quote{}, ErrUnsupported
}

func (c *commBase) Region(id FuncID) (mem.Range, bool) {
	f, ok := c.funcs[id]
	if !ok {
		return mem.Range{}, false
	}
	return f.region, true
}

// CachePolicy: one L2, no partitioning.
func (c *commBase) CachePolicy() cache.Policy { return cache.Shared }

// NewBusArbiter: first-come-first-served, no reservations (§3.3).
func (c *commBase) NewBusArbiter(int) bus.Arbiter { return bus.NewFIFO() }

func (c *commBase) BusOp(client int, now uint64) (uint64, error) {
	return c.bus.op(client, now)
}

// AcceleratorOp: one shared unit; the queueing delay leaks co-tenant
// activity (§3.2).
func (c *commBase) AcceleratorOp(_ FuncID, now uint64) (done, waited uint64) {
	return c.accel.op(now)
}

// register files a launched function under the next id.
func (c *commBase) register(spec FuncSpec, region mem.Range, mask uint64) (FuncID, error) {
	id := c.nextID
	if _, err := c.cores.claim(id, mask); err != nil {
		return 0, err
	}
	f := &commFunc{
		id:     id,
		name:   spec.Name,
		region: region,
		bytes:  spec.MemBytes,
		rules:  spec.Rules,
	}
	c.funcs[id] = f
	c.order = append(c.order, f)
	c.nextID++
	return id, nil
}

// unregister removes a function (no scrubbing: commodity teardown just
// frees the bookkeeping, which is itself one of the §3.2 gaps).
func (c *commBase) unregister(id FuncID) error {
	if _, ok := c.funcs[id]; !ok {
		return ErrNoFunc
	}
	c.cores.release(id)
	delete(c.funcs, id)
	for i, f := range c.order {
		if f.id == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return nil
}

// checkAccess bounds-checks an owner-scoped access.
func (c *commBase) checkAccess(id FuncID, off uint64, n int) (*commFunc, error) {
	f, ok := c.funcs[id]
	if !ok {
		return nil, ErrNoFunc
	}
	if off+uint64(n) > f.bytes {
		return nil, mem.ErrOutOfRange
	}
	return f, nil
}

// steerFrame picks the first function, in launch order, whose rules
// match the frame — the software analogue of the S-NIC switch, for the
// commodity models that have no hardware steering. It returns nil when
// no rule matches.
func (c *commBase) steerFrame(frame []byte) (*commFunc, error) {
	p, err := pkt.Parse(frame)
	if err != nil {
		return nil, err
	}
	for _, f := range c.order {
		for _, r := range f.rules {
			if r.Matches(&p) {
				return f, nil
			}
		}
	}
	return nil, nil
}

// popFrame dequeues the next pending frame reference.
func (c *commBase) popFrame(id FuncID) (frameRef, error) {
	f, ok := c.funcs[id]
	if !ok {
		return frameRef{}, ErrNoFunc
	}
	if f.next == len(f.frames) {
		return frameRef{}, ErrNoFrame
	}
	fr := f.frames[f.next]
	f.next++
	if f.next == len(f.frames) { // drained: refill from the start
		f.frames, f.next = f.frames[:0], 0
	}
	return fr, nil
}
