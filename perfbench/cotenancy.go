package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/cpu"
	"snic/internal/engine"
	"snic/internal/exp"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
	"snic/internal/trace"
)

// paperFig5b is the paper's mean-of-medians IPC degradation (%) at 4 MB
// L2 for each co-tenancy point it publishes (§5.3).
var paperFig5b = []struct {
	nfs int
	pct float64
}{{4, 0.93}, {8, 3.41}, {16, 9.44}}

// cotenancyPass runs Figure 5b once, as `snicbench -experiment fig5b`
// does, with engine workers = the host's CPU count. ready is called just
// before the measured call. With traced set, the sweep also carries an
// obs.Registry and the engine observer, and the simulator probe runs
// after the measured call.
func cotenancyPass(sc scale, seed uint64, traced bool, ready func()) (passResult, error) {
	cfg := sc.fig5
	cfg.Seed = seed
	r := &exp.Runner{Workers: runtime.NumCPU()}
	var reg *obs.Registry
	var em engine.Metrics
	if traced {
		reg = obs.NewRegistry()
		r.Obs = reg
		r.Observe = func(m engine.Metrics) { em = m }
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	ready()
	start := time.Now()
	rows, err := r.Figure5b(cfg, sc.counts)
	wall := time.Since(start)
	if err != nil {
		return passResult{}, fmt.Errorf("figure 5b: %w", err)
	}
	res := passResult{
		WallS:   wall.Seconds(),
		Output:  renderFig5b(rows, sc.counts),
		Work:    float64(fig5bInstr(cfg, sc.counts)),
		Problem: checkFig5b(rows, sc.counts),
	}
	if !traced {
		return res, nil
	}

	layers := map[string]float64{}
	addRuntime(layers, &ms0)
	addEngine(layers, em)
	counts, err := simCounts(reg)
	if err != nil {
		return passResult{}, err
	}
	for k, v := range counts {
		layers[k] = v
	}
	p, err := cotenancyProbe(sc, seed)
	if err != nil {
		return passResult{}, err
	}
	layers["nf.stream_build_s"] = p.BuildS
	layers["nf.stream_s"] = p.StreamS
	layers["bus.arb_s"] = p.ArbS
	layers["cpu.self_s"] = p.SelfS()
	layers["cpu.ns_per_instr"] = p.RunS / float64(p.Instr) * 1e9
	layers["paper_err_pp"] = paperErr(rows)
	res.Layers = layers
	return res, nil
}

// renderFig5b reproduces `snicbench -experiment fig5b` stdout.
func renderFig5b(rows []exp.Fig5Row, counts []int) string {
	var b strings.Builder
	b.WriteString(exp.RenderFig5("Figure 5b: IPC degradation vs co-tenancy (4MB L2)", rows).String())
	b.WriteString("\n")
	for _, n := range counts {
		med, p99 := exp.MedianAcrossNFs(rows, fmt.Sprintf("%d NFs", n))
		fmt.Fprintf(&b, "  %2d NFs @ 4MB: mean-of-medians %.2f%%, p99 %.2f%%\n", n, med, p99)
	}
	b.WriteString("  (paper: 4 NFs 0.93%/1.66%, 8 NFs 3.41%/5.12%, 16 NFs 9.44%/13.71%)\n\n")
	return b.String()
}

// checkFig5b is the sanity check every pass's rows must meet, whatever
// the seed: one row per (co-tenancy, NF) point, each a degradation
// percentage with p1 ≤ median ≤ p99. It returns "" when they do.
func checkFig5b(rows []exp.Fig5Row, counts []int) string {
	if want := len(counts) * len(nf.Names); len(rows) != want {
		return fmt.Sprintf("figure 5b returned %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !(0 <= r.P1 && r.P1 <= r.Median && r.Median <= r.P99 && r.P99 <= 100) {
			return fmt.Sprintf("figure 5b row %s/%s out of range: %+v", r.X, r.NF, r)
		}
	}
	return ""
}

// paperErr is the mean absolute difference, in percentage points,
// between the simulated mean-of-medians and the paper's published
// Figure 5b points the sweep covers.
func paperErr(rows []exp.Fig5Row) float64 {
	var sum float64
	n := 0
	for _, p := range paperFig5b {
		label := fmt.Sprintf("%d NFs", p.nfs)
		found := false
		for _, r := range rows {
			found = found || r.X == label
		}
		if !found {
			continue
		}
		med, _ := exp.MedianAcrossNFs(rows, label)
		sum += math.Abs(med - p.pct)
		n++
	}
	return ratio(sum, float64(n))
}

// fig5bInstr is the nominal simulated instruction count of one Figure
// 5b sweep: every (co-tenancy, target NF) point simulates its sampled
// groups (all six pairings at 2 NFs, cfg.Colocations groups otherwise)
// under both the shared and the partitioned configuration, each core
// running its warmup plus measurement target.
func fig5bInstr(cfg exp.Fig5Config, counts []int) uint64 {
	var total uint64
	for _, n := range counts {
		groups := cfg.Colocations
		if n == 2 {
			groups = len(nf.Names)
		}
		total += uint64(len(nf.Names)*groups*2*n) * (cfg.WarmupInstr + cfg.MeasureInstr)
	}
	return total
}

// simCounts sums the simulated L2 and bus counters of a traced sweep.
// They are exact: a change that only speeds the simulator up must leave
// them identical.
func simCounts(reg *obs.Registry) (map[string]float64, error) {
	dump, err := obs.ParseDump(strings.NewReader(reg.DumpMetrics()))
	if err != nil {
		return nil, fmt.Errorf("parse metric dump: %w", err)
	}
	var hits, misses, grants, stalls float64
	for key, v := range dump {
		f := strings.Fields(key) // kind device owner component name
		if len(f) != 5 || f[0] != "counter" {
			continue
		}
		switch {
		case f[3] == "cache/L2" && f[4] == "hits":
			hits += float64(v)
		case f[3] == "cache/L2" && f[4] == "misses":
			misses += float64(v)
		case strings.HasPrefix(f[3], "bus/") && f[4] == "grants":
			grants += float64(v)
		case strings.HasPrefix(f[3], "bus/") && f[4] == "stall_cycles":
			stalls += float64(v)
		}
	}
	return map[string]float64{
		"cache.l2_accesses":   hits + misses,
		"cache.l2_miss_ratio": ratio(misses, hits+misses),
		"bus.grants":          grants,
		"bus.stall_cycles":    stalls,
	}, nil
}

// probeResult is the host time the cotenancy probe spent in each layer.
type probeResult struct {
	BuildS  float64 // nf NewStream calls
	StreamS float64 // NextBatch calls: op generation plus pool draws
	ArbS    float64 // bus arbiter Request calls
	RunS    float64 // cpu.Runner.RunInstr calls, which contain the two above
	Instr   uint64  // nominal instructions simulated

	Requests uint64 // calls the timed arbiter saw
	Grants   uint64 // bus transactions the trackers counted
}

// SelfS is the time RunInstr spent outside the stream and the arbiter:
// the cpu step plus cache.Access. It is the remainder of RunS, not a
// third timer.
func (p probeResult) SelfS() float64 { return p.RunS - p.StreamS - p.ArbS }

// timedStream charges the wrapped stream's calls to *spent. The clock
// is a field rather than a direct time.Now call: the simulator reaches
// these methods through the cpu.Stream interface, and the simulation
// path must not read the wall clock.
type timedStream struct {
	inner cpu.BatchStream
	now   func() time.Time
	spent *time.Duration
}

func (s *timedStream) Next() (cpu.Op, bool) {
	t := s.now()
	op, ok := s.inner.Next()
	*s.spent += s.now().Sub(t)
	return op, ok
}

func (s *timedStream) NextBatch(buf []cpu.Op) int {
	t := s.now()
	n := s.inner.NextBatch(buf)
	*s.spent += s.now().Sub(t)
	return n
}

// timedArbiter charges the wrapped arbiter's grants to spent and counts
// them, reading its clock through a field for the same reason as
// timedStream.
type timedArbiter struct {
	bus.Arbiter
	now   func() time.Time
	spent time.Duration
	calls uint64
}

func (a *timedArbiter) Request(domain int, now, dur uint64) uint64 {
	t := a.now()
	start := a.Arbiter.Request(domain, now, dur)
	a.spent += a.now().Sub(t)
	a.calls++
	return start
}

// cotenancyProbe simulates one colocation group per co-tenancy point,
// under both configurations Figure 5b compares, built from the public
// cache, bus, cpu, nf and trace calls with the stream and the arbiter
// wrapped in timers.
func cotenancyProbe(sc scale, seed uint64) (probeResult, error) {
	cfg := sc.fig5
	// The suite Figure 5 builds when its config leaves Suite zero.
	suite := nf.TestScale(seed)
	suite.FirewallRules = 643
	suite.Routes = 4000
	suite.DPIPatterns = 4000
	models := map[string]nf.NF{}
	pool := trace.NewICTF(sim.DeriveRand(seed, "perfbench/cotenancy/pool"), cfg.PoolFlows)

	var p probeResult
	var streamT time.Duration
	for _, n := range sc.counts {
		pick := sim.DeriveRand(seed, "perfbench/cotenancy/group", strconv.Itoa(n))
		names := make([]string, n)
		for i := range names {
			names[i] = nf.Names[pick.Intn(len(nf.Names))]
			if models[names[i]] == nil {
				f, err := nf.New(names[i], suite)
				if err != nil {
					return probeResult{}, err
				}
				models[names[i]] = f
			}
		}
		for _, policy := range []cache.Policy{cache.Shared, cache.Static} {
			arb := &timedArbiter{Arbiter: bus.NewFIFO(), now: time.Now}
			ways := 16
			if policy == cache.Static {
				arb.Arbiter = bus.NewTemporal(n, 60, 10)
				ways = max(ways, n)
			}
			l2, err := cache.New(cache.Config{Name: "L2", Size: 4 << 20, LineSize: 64,
				Ways: ways, Policy: policy, Domains: n})
			if err != nil {
				return probeResult{}, err
			}
			tr := bus.NewTracker(arb, n)
			r := &cpu.Runner{Cores: make([]*cpu.Core, n), Streams: make([]cpu.Stream, n)}
			for i, name := range names {
				l1, err := cache.New(cache.Config{Name: "L1", Size: 32 << 10, LineSize: 64,
					Ways: 4, Policy: cache.Shared, Domains: 1})
				if err != nil {
					return probeResult{}, err
				}
				r.Cores[i] = &cpu.Core{Domain: i, L1: l1, L2: l2, Bus: tr, Lat: cpu.DefaultLatencies()}
				rng := sim.DeriveRand(seed, "perfbench/cotenancy/stream", strconv.Itoa(n), strconv.Itoa(i))
				t := time.Now()
				s := models[name].NewStream(rng, pool, mem.Addr(i+1)<<32)
				p.BuildS += time.Since(t).Seconds()
				bs, ok := s.(cpu.BatchStream)
				if !ok {
					return probeResult{}, fmt.Errorf("%s stream has no batch path", name)
				}
				r.Streams[i] = &timedStream{inner: bs, now: time.Now, spent: &streamT}
			}
			t := time.Now()
			r.RunInstr(cfg.WarmupInstr)
			for _, c := range r.Cores {
				c.ResetCounters()
			}
			r.RunInstr(cfg.MeasureInstr)
			p.RunS += time.Since(t).Seconds()
			p.ArbS += arb.spent.Seconds()
			p.Instr += uint64(n) * (cfg.WarmupInstr + cfg.MeasureInstr)
			p.Requests += arb.calls
			for d := 0; d < n; d++ {
				p.Grants += tr.Stats(d).Transactions
			}
		}
	}
	p.StreamS = streamT.Seconds()
	return p, nil
}

// addRuntime records the heap allocated and GC cycles run since ms0.
func addRuntime(layers map[string]float64, ms0 *runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layers["runtime.alloc_mb"] = float64(ms.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	layers["runtime.gc_cycles"] = float64(ms.NumGC - ms0.NumGC)
}

// addEngine records the job pool's busy time, its slowest job, and its
// utilisation (busy ÷ (wall × workers)).
func addEngine(layers map[string]float64, m engine.Metrics) {
	var busy, critical time.Duration
	for _, j := range m.Jobs {
		busy += j.Duration
		critical = max(critical, j.Duration)
	}
	layers["engine.jobs"] = float64(len(m.Jobs))
	layers["engine.busy_s"] = busy.Seconds()
	layers["engine.critical_s"] = critical.Seconds()
	layers["engine.util"] = ratio(busy.Seconds(), m.Wall.Seconds()*float64(m.Workers))
}
