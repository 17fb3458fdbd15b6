package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tools holds snicd and snicbench built from the tree for the tests.
var tools string

func TestMain(m *testing.M) {
	// The benchmark launches its passes as `<own binary> pass ...`; under
	// `go test` its own binary is this test binary.
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(runPass(os.Args[2:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tools = dir
	cmd := exec.Command("go", "build", "-o", dir, "snic/cmd/snicd", "snic/cmd/snicbench")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build snicd and snicbench:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// mayBeZero are the per-layer metrics a correct traced run can measure
// as exactly 0.
var mayBeZero = map[string]bool{
	"error_rate": true, "pktio.drop_ratio": true, "tlb.misses": true,
}

// TestSmoke runs every workload at small scale, untraced and traced, and
// checks the result object against BENCHMARK.json: every metric it
// names is printed with its unit, end-to-end values are positive, the
// per-layer metrics the workload measures are nonzero, and nothing
// failed.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"cotenancy", "nfprofile", "fleet"} {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := runBench([]string{"-spec", "../BENCHMARK.json",
					"-snicd", filepath.Join(tools, "snicd"), "-tmp", t.TempDir(),
					"-workload", w, "-seed", "7", "-seconds", "0", "-trace", fmt.Sprint(trace),
					"-scale", "small"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				list := spec.EndToEnd
				if trace == 1 {
					list = spec.PerLayer
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("printed %d metrics, the spec names %d", len(res.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == 1 && res.Metrics["error_rate"].Value != 0 {
					t.Errorf("error_rate = %v", res.Metrics["error_rate"].Value)
				}
				if trace == 1 {
					for _, name := range layerMetrics(w) {
						if v := res.Metrics[name].Value; v == 0 && !mayBeZero[name] {
							t.Errorf("per-layer metric %s measured as 0", name)
						}
					}
				}
			})
		}
	}
}

// TestRenderChecksLayerMetrics checks that a traced result fails to
// render when a workload's per-layer metric was not measured, or when a
// metric outside its list was.
func TestRenderChecksLayerMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	full := func() report {
		r := report{attempted: 1, metrics: map[string]float64{}}
		for _, name := range layerMetrics("fleet") {
			r.metrics[name] = 1
		}
		return r
	}
	if _, err := full().render(spec, "fleet", true); err != nil {
		t.Fatalf("complete result: %v", err)
	}
	missing := full()
	delete(missing.metrics, "fleet.burst_ms")
	if _, err := missing.render(spec, "fleet", true); err == nil {
		t.Error("rendered a fleet result without fleet.burst_ms")
	}
	extra := full()
	extra.metrics["cpu.self_s"] = 1
	if _, err := extra.render(spec, "fleet", true); err == nil {
		t.Error("rendered a fleet result carrying cotenancy's cpu.self_s")
	}
}

// TestMeasureWholeRounds checks that an untraced run measures whole
// rounds of its seeds and reports the median round's mean pass.
func TestMeasureWholeRounds(t *testing.T) {
	seeds := []uint64{7, 8, 9}
	runs := map[uint64]int{}
	probe := func() (float64, error) { return 0.001, nil }
	pass := func(seed uint64, round int) (cost, error) {
		runs[seed]++
		time.Sleep(time.Millisecond)
		return cost{setupS: 0.002, rssMB: float64(seed), cpuS: float64(seed) + float64(round)}, nil
	}
	m, err := measure(options{workload: "test", seconds: 0.05}, seeds, probe, pass)
	if err != nil {
		t.Fatal(err)
	}
	rounds := runs[7]
	if rounds < 2 || runs[8] != rounds || runs[9] != rounds {
		t.Fatalf("passes per seed %v, want the same count of at least 2", runs)
	}
	// Round r's mean pass costs 8+r; the median round is (rounds-1)/2.
	if want := 8 + float64(rounds-1)/2; math.Abs(m["cpu_s"]-want) > 1e-9 || math.Abs(m["max_rss_mb"]-8) > 1e-9 {
		t.Errorf("cpu_s %v, max_rss_mb %v; want %v and 8", m["cpu_s"], m["max_rss_mb"], want)
	}
}

// TestOutputsMatchSnicbench checks that, at the default seed, the
// cotenancy and nfprofile passes print exactly what `snicbench
// -experiment fig5b|table6` prints at the same scale.
func TestOutputsMatchSnicbench(t *testing.T) {
	sc := scales["small"]
	for _, tc := range []struct {
		experiment string
		pass       func(scale, uint64, bool, func()) (passResult, error)
	}{{"fig5b", cotenancyPass}, {"table6", nfprofilePass}} {
		want, err := exec.Command(filepath.Join(tools, "snicbench"), "-experiment", tc.experiment, "-scale", "small").Output()
		if err != nil {
			t.Fatalf("snicbench %s: %v", tc.experiment, err)
		}
		res, err := tc.pass(sc, oracleSeed, false, func() {})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != string(want) {
			t.Errorf("%s: benchmark output differs from snicbench\n got:\n%s\nwant:\n%s", tc.experiment, res.Output, want)
		}
	}
}

// TestProbeAccounting checks the cotenancy probe's timers. cpu.self_s
// is RunInstr time minus stream and arbiter time, so the three add up
// to the RunInstr time by construction; what can fail is that the
// stream and arbiter timers sit on the simulator's path (every bus
// grant passed through the timed arbiter) and inside RunInstr (their
// sum is less than its time).
func TestProbeAccounting(t *testing.T) {
	p, err := cotenancyProbe(scales["small"], 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Grants == 0 || p.Requests != p.Grants {
		t.Errorf("timed arbiter saw %d requests, the bus trackers counted %d grants", p.Requests, p.Grants)
	}
	if !(p.StreamS+p.ArbS < p.RunS) {
		t.Errorf("stream %g s + arbiter %g s exceeds RunInstr time %g s", p.StreamS, p.ArbS, p.RunS)
	}
	if !(p.StreamS > 0 && p.ArbS > 0 && p.BuildS > 0) {
		t.Errorf("every layer time must be positive: %+v", p)
	}
}

// TestFleetScript checks the request script: deterministic per seed,
// different across seeds, unique NF names, and a live NF count that
// stays between live and live+perCycle.
func TestFleetScript(t *testing.T) {
	sh := scales["medium"].fleet
	a, b, c := fleetScript(sh, 1), fleetScript(sh, 1), fleetScript(sh, 2)
	same := func(x, y []request) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].path != y[i].path || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed gave different scripts")
	}
	if same(a, c) {
		t.Error("different seeds gave the same script")
	}
	live, placed := 0, map[string]bool{}
	for _, rq := range a {
		switch rq.class {
		case classPlace:
			if placed[rq.nf] {
				t.Fatalf("NF %s placed twice", rq.nf)
			}
			placed[rq.nf] = true
			live++
		case classRemove:
			if !placed[rq.nf] {
				t.Fatalf("NF %s removed before it was placed", rq.nf)
			}
			live--
		case classBurst:
			if live < sh.live || live > sh.live+sh.perCycle {
				t.Fatalf("live NF count %d outside [%d, %d]", live, sh.live, sh.live+sh.perCycle)
			}
		}
	}
}
