package exp

import (
	"fmt"

	"snic/internal/bus"
	"snic/internal/cache"
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/nf"
	"snic/internal/obs"
	"snic/internal/sim"
)

// The per-device co-tenancy sweep extends Figure 5 with a -device
// dimension (the ROADMAP's per-device colocation item, in minimal form):
// for every registered NIC model it re-runs the §5.3 pairwise comparison
// using that model's own shared-L2 policy and bus arbiter against the
// commodity Shared+FIFO baseline. Commodity models therefore measure
// ~0% degradation against themselves (their "isolation" is the
// baseline), while S-NIC shows the small partitioning cost — the same
// headline the paper's Figure 5 makes, now per device.

// Fig5DevRow is one (device model, target NF) result: the target's IPC
// degradation distribution over exhaustive pairwise colocations at the
// paper's 4 MB L2.
type Fig5DevRow struct {
	Device string
	NF     string
	Median float64
	P1     float64
	P99    float64
}

// Figure5Devices decomposes the device sweep into one engine job per
// (model, target NF) point. Each point derives everything from
// (cfg, model, target), so jobs stay independent and worker-invariant.
func (r *Runner) Figure5Devices(cfg Fig5Config) ([]Fig5DevRow, error) {
	cfg.defaults()
	var jobs []engine.Job[Fig5DevRow]
	for _, model := range device.Models() {
		for _, target := range nf.Names {
			key := model + "/" + target
			jobs = append(jobs, engine.Job[Fig5DevRow]{
				Experiment: "fig5dev",
				Key:        key,
				Run: func(*sim.Rand) (Fig5DevRow, error) {
					return devicePoint(cfg, r.obsReg(), "fig5dev/"+key, model, target)
				},
			})
		}
	}
	return runJobs(r, cfg.Seed, jobs)
}

// devicePoint measures one (model, target) point. The baseline side is
// always commodity Shared+FIFO hardware; the device side runs the
// model's own CachePolicy and NewBusArbiter. Metric scopes use
// ".../base" and ".../dev" rather than the policy name because a
// commodity device's policy is itself "shared" and the two sides must
// stay distinguishable.
func devicePoint(cfg Fig5Config, reg *obs.Registry, scope, model, target string) (Fig5DevRow, error) {
	dev, err := device.New(device.Spec{Model: model})
	if err != nil {
		return Fig5DevRow{}, err
	}
	const l2Size = 4 << 20
	var degs []float64
	for gi, group := range partnersFor(cfg, target, 2, 0) {
		gscope := fmt.Sprintf("%s/g%d", scope, gi)
		base, err := runGroup(cfg, reg, gscope+"/base", group, l2Size,
			cache.Shared, func(int) bus.Arbiter { return bus.NewFIFO() })
		if err != nil {
			return Fig5DevRow{}, err
		}
		devIPC, err := runGroup(cfg, reg, gscope+"/dev", group, l2Size,
			dev.CachePolicy(), dev.NewBusArbiter)
		if err != nil {
			return Fig5DevRow{}, err
		}
		degs = append(degs, degradation(base[0], devIPC[0]))
	}
	s := sim.Summarize(degs)
	return Fig5DevRow{
		Device: model, NF: target,
		Median: s.Median, P1: s.P1, P99: s.P99,
	}, nil
}

// RenderFig5Dev formats the device sweep as a table.
func RenderFig5Dev(rows []Fig5DevRow) Table {
	t := Table{
		Title:  "Figure 5 (per-device): IPC degradation vs commodity shared hardware (2 NFs, 4MB L2)",
		Header: []string{"device", "NF", "median %", "p1 %", "p99 %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Device, r.NF, f2(r.Median), f2(r.P1), f2(r.P99)})
	}
	return t
}
