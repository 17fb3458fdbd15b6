package baseline

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/mem"
)

// Agilio models the Netronome architecture: islands of programmable cores
// with island-private SRAM, raw physical addressing of the shared memory
// banks, shared cryptographic accelerators, and — critically for §3.3 —
// an internal bus with no bandwidth reservations.
type Agilio struct {
	pm   *mem.Physical
	bus  *bus.Tracker
	cost uint64 // bus cycles per memory transaction

	// watchdogCycles: if a single request waits longer than this, the NIC
	// "hard-crashes, requiring a power cycle to recover" (§3.3).
	watchdogCycles uint64
	crashed        bool

	// Shared crypto accelerator: one unit, FIFO service.
	cryptoFree uint64
	cryptoCost uint64
}

// NewAgilio builds the model with n bus clients (islands).
func NewAgilio(memBytes uint64, islands int) (*Agilio, error) {
	pm, err := mem.NewPhysical(memBytes, 64<<10)
	if err != nil {
		return nil, err
	}
	return &Agilio{
		pm:             pm,
		bus:            bus.NewTracker(bus.NewFIFO(), islands),
		cost:           8,
		watchdogCycles: 1 << 20,
		cryptoCost:     2000,
	}, nil
}

// Memory exposes the DRAM (raw physical addressing, like the real part).
func (a *Agilio) Memory() *mem.Physical { return a.pm }

// Crashed reports whether the bus DoS has wedged the NIC.
func (a *Agilio) Crashed() bool { return a.crashed }

// BusOp issues one memory transaction from an island at local time now,
// returning the completion cycle. A wait beyond the watchdog marks the
// NIC crashed (every subsequent op fails).
func (a *Agilio) BusOp(island int, now uint64) (uint64, error) {
	if a.crashed {
		return 0, fmt.Errorf("baseline: NIC crashed; power cycle required")
	}
	start := a.bus.Request(island, now, a.cost)
	if start-now > a.watchdogCycles {
		a.crashed = true
		return 0, fmt.Errorf("baseline: bus watchdog expired (waited %d cycles)", start-now)
	}
	return start + a.cost, nil
}

// CryptoOp models one operation on the shared crypto accelerator at local
// time now, returning (completion, queueing delay). The queueing delay is
// the §3.2 side channel: it reveals whether other cores are doing
// cryptography.
func (a *Agilio) CryptoOp(now uint64) (done, waited uint64) {
	start := now
	if a.cryptoFree > start {
		start = a.cryptoFree
	}
	a.cryptoFree = start + a.cryptoCost
	return start + a.cryptoCost, start - now
}
