package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"snic/internal/nf"
	"snic/internal/sim"
)

const (
	// setupProbes is how many extra launches per run only measure set-up.
	setupProbes = 10
	// minPasses is the fewest measured passes an untraced run makes.
	minPasses = 3
	// cotenancySeeds is how many seeds a cotenancy round covers.
	cotenancySeeds = 6
	// oracleSeed is the default seed: snicbench's own.
	oracleSeed = 1
)

// oracleJSON holds the default-seed digests at medium scale: the
// `snicbench -experiment fig5b|table6 -scale medium` stdout and the
// final fleet /v1/oper and /v1/oper/stats bodies.
//
//go:embed oracle.json
var oracleJSON []byte

// report is what a run measured, before it is matched to the spec.
type report struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records one failed check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics lists the per-layer metrics the traced run of a workload
// must measure. Every other per-layer metric belongs to a layer the
// workload never calls.
func layerMetrics(workload string) []string {
	out := []string{"error_rate", "bench.trace_overhead", "pass_s", "runtime.alloc_mb", "runtime.gc_cycles"}
	engine := []string{"engine.jobs", "engine.busy_s", "engine.critical_s", "engine.util"}
	switch workload {
	case "cotenancy":
		out = append(out, engine...)
		out = append(out, "sim_minstr_per_s", "paper_err_pp",
			"nf.stream_build_s", "nf.stream_s", "bus.arb_s", "cpu.self_s", "cpu.ns_per_instr",
			"cache.l2_accesses", "cache.l2_miss_ratio", "bus.grants", "bus.stall_cycles")
	case "nfprofile":
		out = append(out, engine...)
		out = append(out, "pkts_per_s", "trace.ns_per_pkt", "trace.caida_ns_per_pkt")
		for _, name := range nf.Names {
			out = append(out, "engine.job_s."+name, "nf.build_s."+name, "nf.ns_per_pkt."+name)
		}
	case "fleet":
		out = append(out, "burst_p50_ms", "burst_p90_ms", "ctl_p50_ms", "ctl_p90_ms",
			"churn_cold_p50_ms", "churn_fast_p50_ms",
			"fleet.place_ms", "fleet.remove_ms", "fleet.stats_ms", "fleet.burst_ms",
			"fleet.churn_cold_ms", "fleet.churn_fast_ms",
			"snicd.ctl_overhead_ms", "snicd.burst_overhead_ms", "snicd.burst_s", "snicd.ctl_s", "snicd.churn_s",
			"pktio.packets", "pktio.drop_ratio", "engine.burst_jobs",
			"snic.launches", "snic.pool_hit_ratio", "snic.attests_per_launch", "device.refusal_ratio",
			"tlb.fills", "tlb.misses")
	}
	return out
}

// render prints the result object with the spec's end-to-end metrics,
// or with its per-layer metrics for a traced run. A traced run must have
// measured exactly the workload's layerMetrics; the other per-layer
// metrics read 0.
func (r report) render(spec benchSpec, workload string, traced bool) (string, error) {
	list := spec.EndToEnd
	want := map[string]bool{}
	if traced {
		list = spec.PerLayer
		r.metrics["error_rate"] = ratio(float64(r.failed), float64(r.attempted))
		for _, name := range layerMetrics(workload) {
			want[name] = true
		}
	}
	listed := map[string]bool{}
	out := map[string]metricValue{}
	for _, m := range list {
		listed[m.Name] = true
		v, ok := r.metrics[m.Name]
		if !ok && (!traced || want[m.Name]) {
			return "", fmt.Errorf("%s metric %s was not measured", workload, m.Name)
		}
		if ok && traced && !want[m.Name] {
			return "", fmt.Errorf("%s measured %s, which its layerMetrics omit", workload, m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var unlisted []string
	for name := range r.metrics {
		if !listed[name] {
			unlisted = append(unlisted, name)
		}
	}
	if len(unlisted) > 0 {
		sort.Strings(unlisted)
		return "", fmt.Errorf("metrics missing from the spec: %s", strings.Join(unlisted, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	return string(b), err
}

func runWorkload(o options) (report, error) {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return report{}, err
	}
	switch {
	case o.workload == "fleet" && o.trace == 1:
		return tracedFleet(o, sc)
	case o.workload == "fleet":
		return timedFleet(o, sc)
	case o.workload != "cotenancy" && o.workload != "nfprofile":
		return report{}, fmt.Errorf("unknown workload %q (want cotenancy, nfprofile or fleet)", o.workload)
	case o.trace == 1:
		return tracedPasses(o)
	}
	return timedPasses(o)
}

// checkOracle compares out's digest with the recorded default-seed one.
func (r *report) checkOracle(o options, key, out string) {
	if o.seed != oracleSeed || o.scale != "medium" {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(oracleJSON, &want); err != nil {
		r.fail("oracle.json: %v", err)
		return
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want[key] {
		r.fail("%s output digest %s differs from the recorded %s", key, got, want[key])
	}
}

// cost is what one pass cost the host: the raw samples of the
// end-to-end metrics.
type cost struct {
	setupS float64 // launch → first measured call
	rssMB  float64 // peak RSS of the pass process (the daemon for fleet)
	cpuS   float64 // its user + system CPU time
	wallS  float64 // the measured call, or the whole fleet script
}

// measure makes setupProbes set-up-only launches, then rounds of
// passes while another round fits in o.seconds (at least one round and
// minPasses passes). A round is one pass at each of seeds, and only
// whole rounds run, so every seed weighs the same however many rounds
// fit. It returns the end-to-end metrics: setup_s is the median over
// every launch; cpu_s and max_rss_mb are the medians over rounds of the
// round's mean pass.
func measure(o options, seeds []uint64, probe func() (float64, error), pass func(seed uint64, round int) (cost, error)) (map[string]float64, error) {
	var setups, rss, cpu, walls, cpus []float64
	for i := 0; i < setupProbes; i++ {
		s, err := probe()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	n := float64(len(seeds))
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		var mean cost
		for _, seed := range seeds {
			c, err := pass(seed, round)
			if err != nil {
				return nil, err
			}
			setups = append(setups, c.setupS)
			mean.rssMB += c.rssMB / n
			mean.cpuS += c.cpuS / n
			walls = append(walls, c.wallS)
			cpus = append(cpus, c.cpuS)
		}
		rss = append(rss, mean.rssMB)
		cpu = append(cpu, mean.cpuS)
		if len(cpus) >= minPasses && time.Since(start)+time.Since(roundStart) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds of %d seeds; pass wall %s; cpu %s\n",
		o.workload, len(cpu), len(seeds), list(walls), list(cpus))
	return map[string]float64{
		"setup_s":    median(setups),
		"max_rss_mb": median(rss),
		"cpu_s":      median(cpu),
	}, nil
}

// list formats samples for the stderr log.
func list(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// child is one finished pass process.
type child struct {
	cost
	res passResult
}

// spawn runs one pass in a fresh process of this binary and measures its
// set-up time (launch → "ready"), peak RSS and CPU time.
func spawn(o options, seed uint64, traced, setupOnly bool) (child, error) {
	self, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	args := []string{"pass", "-workload", o.workload, "-scale", o.scale, "-seed", fmt.Sprint(int64(seed))}
	if traced {
		args = append(args, "-traced")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return child{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, err
	}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	var c child
	c.setupS = time.Since(start).Seconds()
	rest, err := io.ReadAll(rd)
	if werr := cmd.Wait(); werr != nil {
		return child{}, fmt.Errorf("%s pass: %w", o.workload, werr)
	}
	if rerr != nil || err != nil || line != "ready\n" {
		return child{}, fmt.Errorf("%s pass: no ready line (got %q)", o.workload, line)
	}
	c.rssMB, c.cpuS = usage(cmd.ProcessState)
	if setupOnly {
		return c, nil
	}
	if err := json.Unmarshal(bytes.TrimSpace(rest), &c.res); err != nil {
		return child{}, fmt.Errorf("%s pass result: %w", o.workload, err)
	}
	c.wallS = c.res.WallS
	return c, nil
}

// timedPasses is the untraced cotenancy or nfprofile run, each pass in
// a fresh process. A pass must print the same output as the first
// round's pass at its seed.
func timedPasses(o options) (report, error) {
	var r report
	first := map[uint64]string{}
	probe := func() (float64, error) {
		c, err := spawn(o, o.seed, false, true)
		return c.setupS, err
	}
	m, err := measure(o, passSeeds(o), probe, func(seed uint64, round int) (cost, error) {
		c, err := spawn(o, seed, false, false)
		if err != nil {
			return cost{}, err
		}
		r.attempted++
		switch {
		case c.res.Problem != "":
			r.fail("seed %d, round %d: %s", seed, round+1, c.res.Problem)
		case round == 0:
			first[seed] = c.res.Output
			if seed == o.seed {
				r.checkOracle(o, o.workload, c.res.Output)
			}
		case c.res.Output != first[seed]:
			r.fail("seed %d, round %d: printed different output than round 1", seed, round+1)
		}
		return c.cost, nil
	})
	r.metrics = m
	return r, err
}

// passSeeds are the seeds of an untraced run's rounds: the run's seed,
// and for cotenancy cotenancySeeds-1 seeds derived from it. A Figure 5b
// sweep's CPU time depends on which NFs its seed co-locates (some seeds
// cost a third more than others), so a cotenancy run's figures average
// over several colocation samples.
func passSeeds(o options) []uint64 {
	seeds := []uint64{o.seed}
	for k := 1; o.workload == "cotenancy" && k < cotenancySeeds; k++ {
		seeds = append(seeds, sim.DeriveSeed(o.seed, "perfbench/cotenancy/pass", strconv.Itoa(k)))
	}
	return seeds
}

// tracedPasses is the traced cotenancy or nfprofile run: one untraced
// and one traced pass, which must print the same output.
func tracedPasses(o options) (report, error) {
	u, err := spawn(o, o.seed, false, false)
	if err != nil {
		return report{}, err
	}
	t, err := spawn(o, o.seed, true, false)
	if err != nil {
		return report{}, err
	}
	r := report{attempted: 2, metrics: t.res.Layers}
	r.checkOracle(o, o.workload, u.res.Output)
	for _, p := range []string{u.res.Problem, t.res.Problem} {
		if p != "" {
			r.fail("%s", p)
		}
	}
	if t.res.Output != u.res.Output {
		r.fail("traced pass printed different output than the untraced pass")
	}
	r.metrics["pass_s"] = u.res.WallS
	r.metrics["bench.trace_overhead"] = t.res.WallS/u.res.WallS - 1
	switch o.workload {
	case "cotenancy":
		r.metrics["sim_minstr_per_s"] = u.res.Work / u.res.WallS / 1e6
	case "nfprofile":
		r.metrics["pkts_per_s"] = u.res.Work / u.res.WallS
	}
	return r, nil
}

// writeBoot writes the fleet's bootstrap config for snicd -config.
func writeBoot(o options, boot bootConfig) (string, error) {
	b, err := json.MarshalIndent(boot, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.tmp, fmt.Sprintf("perfbench-fleet-%d.json", os.Getpid()))
	return path, os.WriteFile(path, b, 0o644)
}

// daemonPass launches a daemon, drives the script through it and stops
// it, recording the daemon's set-up time, peak RSS and CPU time.
func daemonPass(o options, cfgPath string, script []request, traced bool) (fleetPass, error) {
	d, err := startDaemon(o.snicd, cfgPath, o.seed)
	if err != nil {
		return fleetPass{}, err
	}
	p, err := driveFleet(d.base, script, traced)
	var serr error
	p.rssMB, p.cpuS, serr = d.stop()
	p.setupS = d.setup.Seconds()
	if err == nil {
		err = serr
	}
	return p, err
}

// timedFleet is the untraced fleet run, each pass against a fresh
// daemon. Every pass must end in the same state.
func timedFleet(o options, sc scale) (report, error) {
	cfgPath, err := writeBoot(o, fleetBoot(sc.fleet, o.seed))
	if err != nil {
		return report{}, err
	}
	defer os.Remove(cfgPath)
	script := fleetScript(sc.fleet, o.seed)

	var r report
	var first fleetPass
	probe := func() (float64, error) {
		d, err := startDaemon(o.snicd, cfgPath, o.seed)
		if err != nil {
			return 0, err
		}
		_, _, err = d.stop()
		return d.setup.Seconds(), err
	}
	m, err := measure(o, passSeeds(o), probe, func(_ uint64, round int) (cost, error) {
		p, err := daemonPass(o, cfgPath, script, false)
		if err != nil {
			return cost{}, err
		}
		r.attempted += p.attempted
		r.failed += p.failed
		if round == 0 {
			first = p
			r.checkOracle(o, "fleet_oper", p.oper)
			r.checkOracle(o, "fleet_stats", p.stats)
		} else if p.oper != first.oper || p.stats != first.stats {
			r.fail("fleet pass %d ended in a different state than pass 1", round+1)
		}
		return p.cost, nil
	})
	r.metrics = m
	return r, err
}

// tracedFleet is the traced fleet run: one untraced and one traced
// daemon pass, then the same script replayed in-process against a
// fleet.Manager. All three must end in the same state.
func tracedFleet(o options, sc scale) (report, error) {
	boot := fleetBoot(sc.fleet, o.seed)
	cfgPath, err := writeBoot(o, boot)
	if err != nil {
		return report{}, err
	}
	defer os.Remove(cfgPath)
	script := fleetScript(sc.fleet, o.seed)

	u, err := daemonPass(o, cfgPath, script, false)
	if err != nil {
		return report{}, err
	}
	t, err := daemonPass(o, cfgPath, script, true)
	if err != nil {
		return report{}, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rp, err := replayFleet(boot, script, o.seed)
	if err != nil {
		return report{}, err
	}

	r := report{attempted: u.attempted + t.attempted, failed: u.failed + t.failed, metrics: map[string]float64{}}
	r.checkOracle(o, "fleet_oper", u.oper)
	r.checkOracle(o, "fleet_stats", u.stats)
	if t.oper != u.oper || t.stats != u.stats {
		r.fail("traced fleet pass ended in a different state than the untraced pass")
	}
	r.attempted++
	if rp.oper != u.oper || rp.stats != u.stats {
		r.fail("in-process manager replay ended in a different state than the daemon")
	}

	m := r.metrics
	addRuntime(m, &ms0)
	httpCtl := concat(u.lat, classPlace, classRemove, classStats)
	mgrCtl := concat(rp.lat, classPlace, classRemove, classStats)
	m["burst_p50_ms"] = median(u.lat[classBurst])
	m["burst_p90_ms"] = quantile(u.lat[classBurst], 0.9)
	m["ctl_p50_ms"] = median(httpCtl)
	m["ctl_p90_ms"] = quantile(httpCtl, 0.9)
	m["churn_cold_p50_ms"] = median(u.lat[classChurnCold])
	m["churn_fast_p50_ms"] = median(u.lat[classChurnFast])
	m["fleet.place_ms"] = median(rp.lat[classPlace])
	m["fleet.remove_ms"] = median(rp.lat[classRemove])
	m["fleet.stats_ms"] = median(rp.lat[classStats])
	m["fleet.burst_ms"] = median(rp.lat[classBurst])
	m["fleet.churn_cold_ms"] = median(rp.lat[classChurnCold])
	m["fleet.churn_fast_ms"] = median(rp.lat[classChurnFast])
	m["snicd.ctl_overhead_ms"] = median(httpCtl) - median(mgrCtl)
	m["snicd.burst_overhead_ms"] = m["burst_p50_ms"] - m["fleet.burst_ms"]
	m["snicd.burst_s"] = sum(u.lat[classBurst]) / 1e3
	m["snicd.ctl_s"] = sum(httpCtl) / 1e3
	m["snicd.churn_s"] = sum(concat(u.lat, classChurnCold, classChurnFast)) / 1e3
	t.counts.layers(m)
	m["tlb.fills"] = t.tlbFills
	m["tlb.misses"] = t.tlbMisses
	m["pass_s"] = u.wallS
	m["bench.trace_overhead"] = t.wallS/u.wallS - 1
	return r, nil
}

// concat joins the samples of the named classes.
func concat(lat map[string][]float64, classes ...string) []float64 {
	var out []float64
	for _, c := range classes {
		out = append(out, lat[c]...)
	}
	return out
}
