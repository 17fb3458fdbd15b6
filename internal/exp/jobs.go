package exp

import (
	"snic/internal/engine"
	"snic/internal/obs"
)

// Runner executes experiment sweeps on the concurrent engine. The zero
// value runs with GOMAXPROCS workers; cmd/snicbench builds one from its
// -workers/-v flags. Every sweep decomposes into engine jobs keyed by a
// stable (experiment, jobKey) pair, and each job draws randomness only
// from the sim.Rand derived from that pair — so output is bit-identical
// for any worker count, including 1.
type Runner struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Observe, if set, receives the engine metrics of each completed
	// sweep (snicbench -v prints them).
	Observe func(engine.Metrics)
	// OnJob, if set, receives per-job completion events as they happen.
	OnJob func(engine.JobStat)
	// Obs, if set, collects simulated-time metrics and traces from the
	// instrumented sweeps (snicbench -trace/-metrics attaches one). Each
	// job scopes its labels and trace track by its stable job key, so the
	// collected output is worker-count invariant like the results.
	Obs *obs.Registry
	// Progress, if set, receives live run telemetry (job counts, shard
	// stream positions, checkpoint saves) for snicbench -progress. The
	// collector is quarantined like obs.Wall: the sweeps write to it,
	// only tools read it, and nothing deterministic depends on it.
	Progress *obs.Progress
}

// obsReg returns the runner's collector; nil (detached) for the zero
// value and a nil runner.
func (r *Runner) obsReg() *obs.Registry {
	if r == nil {
		return nil
	}
	return r.Obs
}

func (r *Runner) config(seed uint64) engine.Config {
	cfg := engine.Config{Seed: seed}
	if r != nil {
		cfg.Workers = r.Workers
		cfg.OnJob = r.OnJob
		cfg.Progress = r.Progress
	}
	return cfg
}

// runJobs executes one sweep for r, forwarding metrics to Observe.
// (A free function because Go methods cannot introduce type parameters.)
func runJobs[T any](r *Runner, seed uint64, jobs []engine.Job[T]) ([]T, error) {
	out, m, err := engine.Run(r.config(seed), jobs)
	if r != nil && r.Observe != nil {
		r.Observe(m)
	}
	return out, err
}
