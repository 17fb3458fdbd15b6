// Command perfbench is the repository benchmark. It runs one workload
// against the tree it was built from and prints, as the last line of
// stdout, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// Usage (perfbench/run.py builds the binaries and supplies -spec and
// -snicd):
//
//	perfbench -spec BENCHMARK.json -snicd snicd -workload cotenancy|nfprofile|fleet \
//	    -seed N -seconds S -trace 0|1 [-scale medium|small] [-tmp DIR]
//
// With -trace 0 it prints the spec's end_to_end metrics, measured over
// fresh processes for about -seconds; with -trace 1 it prints the
// spec's per_layer metrics from one untraced and one traced pass. See
// README.md for the workloads and what each metric means.
//
// `perfbench pass ...` is the child mode the benchmark launches for the
// cotenancy and nfprofile passes: it prints "ready" just before the
// measured call and the pass result as JSON after it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pass" {
		os.Exit(runPass(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark-mode flags.
type options struct {
	spec, snicd, workload, scale, tmp string
	seed                              uint64
	seconds                           float64
	trace                             int
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seed int64
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition (metric names and units)")
	fs.StringVar(&o.snicd, "snicd", "", "snicd binary built from the tree (fleet workload)")
	fs.StringVar(&o.workload, "workload", "", "cotenancy, nfprofile or fleet")
	fs.StringVar(&o.scale, "scale", "medium", "input size: medium (the benchmark) or small (smoke tests)")
	fs.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for the fleet bootstrap config")
	fs.Int64Var(&seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the untraced run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seed = uint64(seed)
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := rep.render(spec, o.workload, o.trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, out)
	return 0
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// passResult is what one pass reports to the benchmark.
type passResult struct {
	WallS   float64            `json:"wall_s"`            // the measured call
	Output  string             `json:"output"`            // what snicbench prints for it
	Work    float64            `json:"work"`              // nominal instructions or packets
	Problem string             `json:"problem,omitempty"` // why the output failed its sanity check
	Layers  map[string]float64 `json:"layers,omitempty"`  // traced passes only
}

// runPass is the child mode: one cotenancy or nfprofile pass in a fresh
// process, so the memo caches start empty as they do for every
// snicbench user.
func runPass(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench pass", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cotenancy or nfprofile")
	scaleName := fs.String("scale", "medium", "input size")
	seed := fs.Int64("seed", 1, "workload seed")
	traced := fs.Bool("traced", false, "attach the per-layer instrumentation")
	setupOnly := fs.Bool("setup-only", false, "report ready and exit: a set-up-only launch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ready := func() { fmt.Fprintln(stdout, "ready") }
	if *setupOnly {
		ready()
		return 0
	}
	pass := cotenancyPass
	switch *workload {
	case "cotenancy":
	case "nfprofile":
		pass = nfprofilePass
	default:
		fmt.Fprintf(stderr, "perfbench: pass: unknown workload %q\n", *workload)
		return 2
	}
	res, err := pass(sc, uint64(*seed), *traced, ready)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
