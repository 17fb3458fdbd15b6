package exp

import (
	"fmt"

	"snic/internal/accel"
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/mem"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
	"snic/internal/snic"
	"snic/internal/trace"
)

// Fig6Row is one NF's instruction-latency breakdown.
type Fig6Row struct {
	NF           string
	MemMB        float64
	LaunchTLBMS  float64
	LaunchDenyMS float64
	LaunchSHAMS  float64
	AttestMS     float64
	DestroyAllow float64
	DestroyScrub float64
}

// Figure6 decomposes the instruction-latency sweep into one engine job
// per NF. Each job builds its own vendor and device; the serial
// implementation shared one device across all six launches, which would
// race on the device's NF table if jobs ran concurrently.
func (r *Runner) Figure6() ([]Fig6Row, error) {
	jobs := make([]engine.Job[Fig6Row], len(nf.Names))
	for i, name := range nf.Names {
		jobs[i] = engine.Job[Fig6Row]{
			Experiment: "fig6",
			Key:        name,
			Run: func(*sim.Rand) (Fig6Row, error) {
				return launchProfile(r.obsReg(), i, name)
			},
		}
	}
	return runJobs(r, 0xF16C, jobs)
}

// launchProfile measures one NF's launch/attest/destroy breakdown on a
// freshly built device (core placement matches the shared-device layout:
// NF i on core i mod 12). The device comes from the internal/device
// registry like every other harness; the breakdown needs the underlying
// *snic.Device for launch reports. Every reported latency is
// model-derived, so rows are identical no matter which worker runs the
// job. With a collector attached, the device emits the same breakdown
// as cycle-stamped spans on a per-job track/serial ("fig6/<NF>"), which
// is what keeps dumps worker-count invariant.
func launchProfile(reg *obs.Registry, i int, name string) (Fig6Row, error) {
	scope := "fig6/" + name
	n, err := device.New(device.Spec{
		Model: "snic", Cores: 12, MemBytes: 2 << 30, FrameSize: 2 << 20,
		Serial: scope,
	})
	if err != nil {
		return Fig6Row{}, err
	}
	dev := n.(*device.SNIC).Underlying()
	dev.Observe(reg, scope)
	prof, err := nf.PaperProfile(name)
	if err != nil {
		return Fig6Row{}, err
	}
	memBytes := mem.AlignUp(prof.Total(), 2<<20)
	rep, err := dev.Launch(snic.LaunchSpec{
		CoreMask: 1 << uint(i%12),
		Image:    []byte(name + " image"),
		MemBytes: memBytes,
		DMACore:  -1,
	})
	if err != nil {
		return Fig6Row{}, err
	}
	_, _, attestMS, err := dev.AttestNF(rep.ID, []byte("bench-nonce"))
	if err != nil {
		return Fig6Row{}, err
	}
	tr, err := dev.Teardown(rep.ID)
	if err != nil {
		return Fig6Row{}, err
	}
	return Fig6Row{
		NF:           name,
		MemMB:        float64(memBytes) / (1 << 20),
		LaunchTLBMS:  rep.TLBSetupMS,
		LaunchDenyMS: rep.DenylistMS,
		LaunchSHAMS:  rep.DigestMS,
		AttestMS:     attestMS,
		DestroyAllow: tr.AllowlistMS,
		DestroyScrub: tr.ScrubMS,
	}, nil
}

// RenderFig6 formats the latency breakdowns.
func RenderFig6(rows []Fig6Row) Table {
	t := Table{
		Title: "Figure 6: instruction execution latency (ms)",
		Header: []string{"NF", "mem MB", "launch:TLB", "launch:deny", "launch:SHA",
			"nf_attest", "destroy:allow", "destroy:scrub"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.NF, f2(r.MemMB), fmt.Sprintf("%.4f", r.LaunchTLBMS),
			fmt.Sprintf("%.4f", r.LaunchDenyMS), f2(r.LaunchSHAMS),
			f2(r.AttestMS), fmt.Sprintf("%.4f", r.DestroyAllow), f2(r.DestroyScrub),
		})
	}
	return t
}

// Fig7Point is one sample of the Monitor memory time series.
type Fig7Point struct {
	Second float64
	LiveMB float64
}

// Figure7 replays a CAIDA-like window through the Monitor and samples its
// live memory, reproducing the growth curve with hugepage-staging and
// hash-resize spikes. flowRate 0 selects the CAIDA default (~7417/s);
// tests pass smaller rates. It runs as a single engine job: the time
// series is inherently sequential (one Monitor accumulating state across
// the whole window), so the engine contributes only seeding and metrics
// here.
func (r *Runner) Figure7(seconds float64, flowRate float64, samples int) ([]Fig7Point, error) {
	job := engine.Job[[]Fig7Point]{
		Experiment: "fig7",
		Key:        "series",
		Run: func(rng *sim.Rand) ([]Fig7Point, error) {
			return monitorSeries(rng, seconds, flowRate, samples), nil
		},
	}
	out, err := runJobs(r, 0xF17, []engine.Job[[]Fig7Point]{job})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func monitorSeries(rng *sim.Rand, seconds, flowRate float64, samples int) []Fig7Point {
	if samples <= 1 {
		samples = 150
	}
	var series []Fig7Point
	elapsed := 0.0
	mon := nf.NewMonitor(nil)
	c := trace.NewCAIDA(rng, flowRate)
	dt := seconds / float64(samples)
	// Also capture intra-step maxima so resize spikes are visible even if
	// they fall between samples.
	var stepPeak uint64
	mon.Arena().Samples = func(live uint64) {
		if live > stepPeak {
			stepPeak = live
		}
	}
	for s := 0; s < samples; s++ {
		stepPeak = mon.Arena().Live()
		c.Advance(dt, 1)
		for {
			_, p, ok := c.Next()
			if !ok {
				break
			}
			mon.Process(&p)
		}
		elapsed += dt
		series = append(series, Fig7Point{
			Second: elapsed,
			LiveMB: float64(stepPeak) / (1 << 20),
		})
	}
	return series
}

// RenderFig7 formats the time series (downsampled to at most 30 rows).
func RenderFig7(series []Fig7Point) Table {
	t := Table{
		Title:  "Figure 7: Monitor memory usage over time",
		Header: []string{"t (s)", "live MB"},
	}
	step := len(series)/30 + 1
	for i := 0; i < len(series); i += step {
		t.Rows = append(t.Rows, []string{f2(series[i].Second), f2(series[i].LiveMB)})
	}
	return t
}

// Fig8Row is one (threads, frame size) throughput sample.
type Fig8Row struct {
	Threads    int
	FrameBytes int
	Mpps       float64
}

// Figure8 decomposes the sweep into one engine job per (threads, frame)
// point.
func (r *Runner) Figure8(requests int) ([]Fig8Row, error) {
	if requests <= 0 {
		requests = 4000
	}
	p := accel.DefaultDPIPerf()
	var jobs []engine.Job[Fig8Row]
	for _, threads := range []int{16, 32, 48} {
		for _, frame := range []int{64, 512, 1536, 9216} {
			jobs = append(jobs, engine.Job[Fig8Row]{
				Experiment: "fig8",
				Key:        fmt.Sprintf("%dthr/%dB", threads, frame),
				Run: func(*sim.Rand) (Fig8Row, error) {
					pps := accel.SimulateThroughput(p, threads, frame, requests)
					return Fig8Row{Threads: threads, FrameBytes: frame, Mpps: accel.Mpps(pps)}, nil
				},
			})
		}
	}
	return runJobs(r, 0xF18, jobs)
}

// RenderFig8 formats the throughput sweep.
func RenderFig8(rows []Fig8Row) Table {
	t := Table{
		Title:  "Figure 8: DPI throughput vs cluster size and frame size",
		Header: []string{"threads", "64B", "512B", "1.5KB", "9KB"},
	}
	byThreads := map[int][]string{}
	order := []int{}
	for _, r := range rows {
		if _, ok := byThreads[r.Threads]; !ok {
			order = append(order, r.Threads)
			byThreads[r.Threads] = []string{fmt.Sprint(r.Threads)}
		}
		byThreads[r.Threads] = append(byThreads[r.Threads], fmt.Sprintf("%.2f Mpps", r.Mpps))
	}
	for _, th := range order {
		t.Rows = append(t.Rows, byThreads[th])
	}
	return t
}
