package device

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/mem"
)

// Shared model constants, matching the Agilio baseline's calibration so
// the bus-DoS and contention numbers are comparable across models.
const (
	busOpCost      = 8
	watchdogCycles = 1 << 20
	accelOpCost    = 2000
)

// busSim gives every adapter Agilio-style watchdog semantics over its
// own arbiter: a request that waits past the watchdog hard-crashes the
// NIC, and every later op fails. Under a FIFO arbiter a flooding client
// starves the victim past the watchdog; under temporal partitioning no
// client can push another past it.
type busSim struct {
	tr      *bus.Tracker
	crashed bool
}

func newBusSim(arb bus.Arbiter, clients int) *busSim {
	if clients < 2 {
		clients = 2
	}
	return &busSim{tr: bus.NewTracker(arb, clients)}
}

func (b *busSim) op(client int, now uint64) (uint64, error) {
	if b.crashed {
		return 0, fmt.Errorf("device: NIC crashed; power cycle required")
	}
	start := b.tr.Request(client, now, busOpCost)
	if start-now > watchdogCycles {
		b.crashed = true
		return 0, fmt.Errorf("device: bus watchdog expired (waited %d cycles)", start-now)
	}
	return start + busOpCost, nil
}

// sharedAccel is a single accelerator unit with FIFO service — the
// commodity configuration whose queueing delay leaks co-tenant activity.
type sharedAccel struct {
	free uint64
}

func (s *sharedAccel) op(now uint64) (done, waited uint64) {
	start := now
	if s.free > start {
		start = s.free
	}
	s.free = start + accelOpCost
	return start + accelOpCost, start - now
}

// corePool hands out cores to launched functions. The commodity adapters
// use it directly; the snic adapter mirrors the device's own core table
// through the same auto-assignment logic.
type corePool struct {
	owner []FuncID
}

func newCorePool(n int) *corePool { return &corePool{owner: make([]FuncID, n)} }

// pick validates mask against the pool (or, for mask 0, selects the
// lowest free core) without binding anything.
func (p *corePool) pick(mask uint64) (uint64, error) {
	if mask == 0 {
		for i := range p.owner {
			if p.owner[i] == mem.Free {
				mask = 1 << uint(i)
				break
			}
		}
		if mask == 0 {
			return 0, ErrNoCores
		}
	}
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if i >= len(p.owner) {
			return 0, fmt.Errorf("device: core %d does not exist", i)
		}
		if p.owner[i] != mem.Free {
			return 0, fmt.Errorf("device: core %d already bound to function %d", i, p.owner[i])
		}
	}
	return mask, nil
}

// claim binds the cores in mask (or, for mask 0, the lowest free core)
// to id, returning the mask actually bound.
func (p *corePool) claim(id FuncID, mask uint64) (uint64, error) {
	mask, err := p.pick(mask)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(p.owner); i++ {
		if mask&(1<<uint(i)) != 0 {
			p.owner[i] = id
		}
	}
	return mask, nil
}

func (p *corePool) release(id FuncID) {
	for i := range p.owner {
		if p.owner[i] == id {
			p.owner[i] = mem.Free
		}
	}
}

func (p *corePool) free() int {
	n := 0
	for _, o := range p.owner {
		if o == mem.Free {
			n++
		}
	}
	return n
}

// frameBuf returns dst resliced to n bytes when it has the capacity,
// and a new n-byte buffer otherwise: the destination of Retrieve.
func frameBuf(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}
