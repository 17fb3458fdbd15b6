package exp

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/cpu"
	"snic/internal/engine"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
)

// Fig5Config sizes the §5.3 co-tenancy simulation. Zero values pick
// defaults scaled for the bench harness; tests shrink them further.
type Fig5Config struct {
	Suite        nf.SuiteConfig
	PoolFlows    int    // ICTF-like pool size (paper: 100,000)
	WarmupInstr  uint64 // per-core warmup (paper: 1 G total)
	MeasureInstr uint64 // per-core measurement (paper: 100 M total)
	Colocations  int    // sampled colocations per target NF
	Seed         uint64
}

func (c *Fig5Config) defaults() {
	if c.PoolFlows == 0 {
		c.PoolFlows = 100000
	}
	if c.WarmupInstr == 0 {
		c.WarmupInstr = 150000
	}
	if c.MeasureInstr == 0 {
		c.MeasureInstr = 400000
	}
	if c.Colocations == 0 {
		c.Colocations = 6
	}
	if c.Seed == 0 {
		c.Seed = 0xF16
	}
	if c.Suite.Seed == 0 {
		c.Suite = nf.TestScale(c.Seed)
		// Figure 5's cache pressure comes from working-set size, so keep
		// rule/route counts near paper scale where cheap.
		c.Suite.FirewallRules = 643
		c.Suite.Routes = 4000
		c.Suite.DPIPatterns = 4000
	}
}

// Fig5Row is one (NF, x-axis point) result.
type Fig5Row struct {
	NF     string
	X      string // cache size or co-tenancy label
	Median float64
	P1     float64
	P99    float64
}

// colocation simulates one group of NFs co-located on one NIC and
// returns each NF's IPC under (baseline shared hardware) and (S-NIC
// partitioned hardware) with the same cache size and co-tenancy —
// exactly the §5.3 comparison. With a collector attached, the shared L2
// and the bus tracker report per-domain counters under
// "<scope>/<policy>" so the two configurations stay distinguishable.
func colocation(cfg Fig5Config, reg *obs.Registry, scope string, names []string, l2Size uint64) (base, snicIPC []float64, err error) {
	base, err = runGroup(cfg, reg, scope+"/"+cache.Shared.String(), names, l2Size,
		cache.Shared, func(int) bus.Arbiter { return bus.NewFIFO() })
	if err != nil {
		return nil, nil, err
	}
	snicIPC, err = runGroup(cfg, reg, scope+"/"+cache.Static.String(), names, l2Size,
		cache.Static, func(n int) bus.Arbiter {
			// Epoch sized so one DRAM transaction fits the dead time.
			return bus.NewTemporal(n, 60, 10)
		})
	if err != nil {
		return nil, nil, err
	}
	return base, snicIPC, nil
}

// runGroup simulates one co-located NF group under one cache policy and
// bus arbiter, returning each NF's measured IPC. device labels the
// metric scope when a collector is attached. NF models and the workload
// pool come from the process-wide memo caches (see memo.go); every run
// still gets private L1s, a private L2, fresh per-stream RNGs, and a
// fresh pool instantiation, so runs never share mutable state.
func runGroup(cfg Fig5Config, reg *obs.Registry, device string, names []string, l2Size uint64,
	policy cache.Policy, arb func(int) bus.Arbiter) ([]float64, error) {
	n := len(names)
	l2cfg := cache.Config{
		Name: "L2", Size: l2Size, LineSize: 64, Ways: 16,
		Policy: policy, Domains: n,
	}
	if policy == cache.Static && l2cfg.Ways < n {
		l2cfg.Ways = n // keep at least one way per domain at high co-tenancy
	}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return nil, err
	}
	tr := bus.NewTracker(arb(n), n)
	if reg != nil {
		l2.Observe(reg, device)
		tr.Observe(reg, device)
	}
	lat := cpu.DefaultLatencies()
	pool := ictfPool(cfg.Seed, cfg.PoolFlows)
	cores := make([]*cpu.Core, n)
	streams := make([]cpu.Stream, n)
	for i, name := range names {
		f, err := suiteNF(name, cfg.Suite)
		if err != nil {
			return nil, err
		}
		l1, err := cache.New(cache.Config{
			Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 4,
			Policy: cache.Shared, Domains: 1,
		})
		if err != nil {
			return nil, err
		}
		cores[i] = &cpu.Core{Domain: i, L1: l1, L2: l2, Bus: tr, Lat: lat}
		streams[i] = f.NewStream(sim.NewRand(cfg.Seed+uint64(i)+1), pool, mem.Addr(i+1)<<32)
	}
	r := &cpu.Runner{Cores: cores, Streams: streams}
	r.RunInstr(cfg.WarmupInstr)
	for _, c := range cores {
		c.ResetCounters()
	}
	r.RunInstr(cfg.MeasureInstr)
	ipcs := make([]float64, n)
	for i, c := range cores {
		ipcs[i] = c.IPC()
	}
	return ipcs, nil
}

// degradation converts IPC pairs to percent slowdown (clamped at 0: the
// paper reports degradation).
func degradation(base, snicIPC float64) float64 {
	if base <= 0 {
		return 0
	}
	d := (base - snicIPC) / base * 100
	if d < 0 {
		return 0
	}
	return d
}

// partnersFor samples deterministic colocation groups of the given size
// containing the target NF.
func partnersFor(cfg Fig5Config, target string, groupSize, count int) [][]string {
	rng := sim.NewRand(cfg.Seed ^ 0xC0C0)
	var groups [][]string
	if groupSize == 2 {
		// Exhaustive pairings, as the paper does for 2 NFs.
		for _, other := range nf.Names {
			groups = append(groups, []string{target, other})
		}
		return groups
	}
	for g := 0; g < count; g++ {
		group := []string{target}
		for len(group) < groupSize {
			group = append(group, nf.Names[rng.Intn(len(nf.Names))])
		}
		groups = append(groups, group)
	}
	return groups
}

// Figure5a decomposes the cache sweep into one engine job per
// (L2 size, target NF) point. The colocation simulator derives all of
// its randomness from cfg.Seed, so every point is already a pure
// function of (cfg, size, target) and safe to run on any worker.
func (r *Runner) Figure5a(cfg Fig5Config, l2Sizes []uint64) ([]Fig5Row, error) {
	cfg.defaults()
	if len(l2Sizes) == 0 {
		l2Sizes = []uint64{
			8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
			512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
		}
	}
	var jobs []engine.Job[Fig5Row]
	for _, size := range l2Sizes {
		for _, target := range nf.Names {
			key := sizeLabel(size) + "/" + target
			jobs = append(jobs, engine.Job[Fig5Row]{
				Experiment: "fig5a",
				Key:        key,
				Run: func(*sim.Rand) (Fig5Row, error) {
					return cachePoint(cfg, r.obsReg(), "fig5a/"+key, target, 2, 0, size)
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// Figure5b decomposes the co-tenancy sweep into one engine job per
// (tenant count, target NF) point.
func (r *Runner) Figure5b(cfg Fig5Config, counts []int) ([]Fig5Row, error) {
	cfg.defaults()
	if len(counts) == 0 {
		counts = []int{2, 3, 4, 8, 16}
	}
	var jobs []engine.Job[Fig5Row]
	for _, n := range counts {
		for _, target := range nf.Names {
			key := fmt.Sprintf("%dNFs/%s", n, target)
			jobs = append(jobs, engine.Job[Fig5Row]{
				Experiment: "fig5b",
				Key:        key,
				Run: func(*sim.Rand) (Fig5Row, error) {
					row, err := cachePoint(cfg, r.obsReg(), "fig5b/"+key, target, n, cfg.Colocations, 4<<20)
					if err != nil {
						return Fig5Row{}, err
					}
					row.X = fmt.Sprintf("%d NFs", n)
					return row, nil
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// cachePoint measures one Figure 5 point: the target NF's degradation
// distribution over its sampled colocation groups at one L2 size. scope
// prefixes the metric device labels (one sub-scope per sampled group).
func cachePoint(cfg Fig5Config, reg *obs.Registry, scope, target string, groupSize, count int, l2Size uint64) (Fig5Row, error) {
	var degs []float64
	for gi, group := range partnersFor(cfg, target, groupSize, count) {
		base, snicIPC, err := colocation(cfg, reg, fmt.Sprintf("%s/g%d", scope, gi), group, l2Size)
		if err != nil {
			return Fig5Row{}, err
		}
		degs = append(degs, degradation(base[0], snicIPC[0]))
	}
	s := sim.Summarize(degs)
	return Fig5Row{
		NF: target, X: sizeLabel(l2Size),
		Median: s.Median, P1: s.P1, P99: s.P99,
	}, nil
}

// RenderFig5 formats rows as a table.
func RenderFig5(title string, rows []Fig5Row) Table {
	t := Table{
		Title:  title,
		Header: []string{"x", "NF", "median %", "p1 %", "p99 %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.X, r.NF, f2(r.Median), f2(r.P1), f2(r.P99)})
	}
	return t
}

func sizeLabel(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// MedianAcrossNFs summarizes rows for a given x label (the "average
// (median) IPC degradation" numbers quoted in §5.3).
func MedianAcrossNFs(rows []Fig5Row, x string) (mean float64, p99 float64) {
	var meds, p99s []float64
	for _, r := range rows {
		if r.X == x {
			meds = append(meds, r.Median)
			p99s = append(p99s, r.P99)
		}
	}
	if len(meds) == 0 {
		return 0, 0
	}
	s := sim.Summarize(meds)
	return s.Mean, sim.Percentile(p99s, 0.99)
}
