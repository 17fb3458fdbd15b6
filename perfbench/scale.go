package main

import (
	"fmt"

	"snic/internal/exp"
	"snic/internal/fleet"
	"snic/internal/nf"
)

// scale holds one size of every workload's inputs. Its cotenancy and
// nfprofile inputs are exactly `snicbench -scale <name>`'s, so at the
// default seed the rendered tables equal that command's stdout.
// "medium" is the benchmark proper (oracle.json pins its default-seed
// digests); "small" is for the smoke tests.
type scale struct {
	// cotenancy: Figure 5b at a fixed 4 MB L2.
	fig5   exp.Fig5Config
	counts []int

	// nfprofile: the Table 6/8 profiling sweep.
	suite          nf.SuiteConfig
	flows, packets int

	fleet fleetShape
}

// fleetShape sizes the fleet workload's bootstrap and request script.
// Every count is fixed; the seed only chooses names, models' order,
// tenants, reservations and which NFs leave, so the amount of work per
// pass is the same at every seed.
type fleetShape struct {
	devicesPerModel int // devices of each registered model
	snicExtra       int // additional S-NIC devices (the churn fast path's subject)
	tenants         int
	live            int // NFs placed before the measured cycles
	perCycle        int // NFs placed, then removed, in every cycle
	cycles          int // measured place → burst → remove → stats cycles
	churnEvery      int // one cold and one fast churn every churnEvery cycles
	burst           fleet.WorkloadSpec
	churn           fleet.ChurnSpec // FastPath is set per request
}

// scales lists the sizes by name. The Fig5Config and suite values
// mirror cmd/snicbench's scaleConfigs; the seeds are filled in per run.
var scales = map[string]scale{
	"medium": {
		fig5: exp.Fig5Config{PoolFlows: 50000, WarmupInstr: 100000,
			MeasureInstr: 400000, Colocations: 4},
		counts: []int{2, 3, 4, 8, 16},
		suite: nf.SuiteConfig{FirewallRules: 643, DPIPatterns: 8000,
			Routes: 16000, Backends: 64},
		flows: 50000, packets: 300000,
		// Sized so every request class carries a share of the daemon's
		// CPU time (measured by dropping one class from the script at a
		// time; see README.md): bursts about 40 %, churns about 34 %,
		// control requests with the daemon's fixed costs about 24 %.
		fleet: fleetShape{
			devicesPerModel: 4, snicExtra: 4, tenants: 6,
			live: 40, perCycle: 8, cycles: 240, churnEvery: 30,
			burst: fleet.WorkloadSpec{Packets: 32, AccelOps: 2, BusOps: 2},
			churn: fleet.ChurnSpec{Events: 6, Target: 2, Batch: 3},
		},
	},
	"small": {
		fig5: exp.Fig5Config{PoolFlows: 5000, WarmupInstr: 20000,
			MeasureInstr: 60000, Colocations: 3},
		counts: []int{2, 4, 8},
		suite:  nf.TestScale(0),
		flows:  2000, packets: 5000,
		fleet: fleetShape{
			devicesPerModel: 1, snicExtra: 1, tenants: 2,
			live: 4, perCycle: 2, cycles: 8, churnEvery: 4,
			burst: fleet.WorkloadSpec{Packets: 4, AccelOps: 1, BusOps: 1},
			churn: fleet.ChurnSpec{Events: 8, Target: 2, Batch: 2},
		},
	},
}

func scaleByName(name string) (scale, error) {
	sc, ok := scales[name]
	if !ok {
		return scale{}, fmt.Errorf("unknown scale %q (want medium or small)", name)
	}
	return sc, nil
}
