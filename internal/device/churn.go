package device

import (
	"snic/internal/sim"
	"snic/internal/snic"
)

// ChurnPhase names the trusted instruction a simulated latency belongs
// to (§4.2 launch and teardown, §4.6 attestation).
type ChurnPhase int

const (
	PhaseLaunch ChurnPhase = iota
	PhaseAttest
	PhaseTeardown
)

// ChurnSpec is one serverless-churn run on a single device: a
// λ-NIC-style stream of short-lived functions launched toward a
// steady-state target, attested, and torn down in pseudo-random order.
type ChurnSpec struct {
	Events int // lifecycle events
	Target int // steady-state live functions, clamped to the free cores
	// Batch is the attestation batch size when Fast is set; the cold
	// path attests one quote per function.
	Batch int
	// Fast enables the S-NIC churn fast paths — batched attestation,
	// warm scrubbed-arena pool, parallel teardown scrub — for the run.
	// The prior configuration is restored (and parked frames drained)
	// before Churn returns. Other models ignore it.
	Fast bool
	// Func describes the seq'th launch. It is called right before the
	// launch, so any rng draws it makes precede the launch's own.
	Func func(seq int) FuncSpec
	// Observe receives every trusted instruction's simulated latency in
	// event order; n is the number of functions the instruction covered
	// (a Merkle-batched attestation covers the batch). Models without a
	// control-path cost model never call it.
	Observe func(phase ChurnPhase, ms float64, n int)
}

// ChurnStats counts one churn run.
type ChurnStats struct {
	Launches   uint64
	Fails      uint64 // launches the model refused
	Attests    uint64
	Teardowns  uint64
	PoolHits   uint64 // warm-pool launches (S-NIC with the pool on)
	PoolMisses uint64
	LiveSum    uint64 // live functions summed over events
}

// Churn drives n through spec.Events lifecycle events: launch toward
// the target, attest (individually when cold, in Merkle batches when
// fast), and tear down rng-chosen victims once the target is reached.
// A refused launch is counted, not returned — bump-only secure
// allocators exhaust under sustained churn — and recycles a victim so
// the loop keeps exercising teardown. Every function is torn down
// before Churn returns, so the device leaves the run as it entered. All
// randomness comes from rng, so the stats are a pure function of
// (device state, spec, rng seed).
func Churn(n NIC, spec ChurnSpec, rng *sim.Rand) (ChurnStats, error) {
	var st ChurnStats
	sn, isSNIC := n.(*SNIC)
	batch := 1
	if isSNIC && spec.Fast {
		prev := sn.dev.FastPathConfig()
		sn.EnableFastPaths(snic.FastPaths{WarmPool: true, ParallelScrub: true})
		// Restoring drains parked frames back to the free list, so later
		// launches see the allocator the capacity vector promises.
		defer sn.dev.SetFastPaths(prev)
		batch = spec.Batch
	}
	target := min(spec.Target, n.FreeCores())

	var live, pending []FuncID
	nonce := []byte("churn-nonce")

	attestBatch := func() error {
		if len(pending) == 0 {
			return nil
		}
		if !isSNIC {
			// Commodity models without attestation fall through with
			// zero attests; a model that grows the capability counts.
			for _, id := range pending {
				if _, err := n.Attest(id, nonce); err == nil {
					st.Attests++
				}
			}
		} else if batch > 1 {
			_, _, _, ms, err := sn.dev.AttestNFBatch(pending, nonce)
			if err != nil {
				return err
			}
			spec.Observe(PhaseAttest, ms, len(pending))
			st.Attests += uint64(len(pending))
		} else {
			for _, id := range pending {
				_, _, ms, err := sn.dev.AttestNF(id, nonce)
				if err != nil {
					return err
				}
				spec.Observe(PhaseAttest, ms, 1)
				st.Attests++
			}
		}
		pending = pending[:0]
		return nil
	}

	launch := func(seq int) bool {
		fs := spec.Func(seq)
		var id FuncID
		var err error
		if isSNIC {
			var rep snic.LaunchReport
			if id, rep, err = sn.LaunchTimed(fs); err == nil {
				spec.Observe(PhaseLaunch, rep.TotalMS(), 1)
				if rep.PoolHit {
					st.PoolHits++
				} else if sn.dev.FastPathConfig().WarmPool {
					st.PoolMisses++
				}
			}
		} else {
			id, err = n.Launch(fs)
		}
		if err != nil {
			st.Fails++
			return false
		}
		live = append(live, id)
		pending = append(pending, id)
		st.Launches++
		return true
	}

	teardown := func(k int) error {
		id := live[k]
		live = append(live[:k], live[k+1:]...)
		for i, p := range pending {
			if p == id {
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
		if isSNIC {
			rep, err := sn.TeardownTimed(id)
			if err != nil {
				return err
			}
			spec.Observe(PhaseTeardown, rep.TotalMS(), 1)
		} else if err := n.Teardown(id); err != nil {
			return err
		}
		st.Teardowns++
		return nil
	}

	for ev, seq := 0, 0; target > 0 && ev < spec.Events; ev++ {
		if len(live) < target {
			ok := launch(seq)
			seq++
			switch {
			case ok:
				if len(pending) >= batch {
					if err := attestBatch(); err != nil {
						return st, err
					}
				}
			case len(live) > 0:
				if err := teardown(rng.Intn(len(live))); err != nil {
					return st, err
				}
			}
		} else if err := teardown(rng.Intn(len(live))); err != nil {
			return st, err
		}
		st.LiveSum += uint64(len(live))
	}
	// Drain: quote the stragglers, then tear everything down.
	if err := attestBatch(); err != nil {
		return st, err
	}
	for len(live) > 0 {
		if err := teardown(len(live) - 1); err != nil {
			return st, err
		}
	}
	return st, nil
}
