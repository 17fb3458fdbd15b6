package exp

import "testing"

// goldenChurnConfig is the fixed small-scale churn shape the golden,
// the worker-invariance suite, and snicbench -scale small all share.
func goldenChurnConfig() ChurnConfig {
	return ChurnConfig{Events: 60, Target: 6, Batch: 4, MemMB: 1}
}

func TestGoldenChurn(t *testing.T) {
	rows, err := (&Runner{}).ChurnNF(goldenChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "churn", RenderChurn(rows).String())
}

// TestChurnFastPathsPayOff pins the headline claim of the control-path
// optimization work in the simulated domain: the three fast paths
// combined deliver at least 3x launches/sec over the paper-exact cold
// path, the warm pool actually gets hit once churn reaches steady
// state, and the cold path never touches it.
func TestChurnFastPathsPayOff(t *testing.T) {
	rows, err := (&Runner{}).ChurnNF(goldenChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]ChurnRow{}
	for _, r := range rows {
		byCell[r.Model+"/"+r.Mode] = r
	}
	cold, fast := byCell["snic/cold"], byCell["snic/fast"]
	if cold.Launches == 0 || fast.Launches == 0 {
		t.Fatalf("missing snic rows: %+v", rows)
	}
	if fast.PerSec < 3*cold.PerSec {
		t.Errorf("fast path launches/sec = %.2f, want >= 3x cold %.2f", fast.PerSec, cold.PerSec)
	}
	if fast.PoolHits == 0 {
		t.Errorf("fast path recorded no warm-pool hits: %+v", fast)
	}
	if cold.PoolHits != 0 || cold.PoolMisses != 0 {
		t.Errorf("cold path touched the warm pool: %+v", cold)
	}
	// Commodity baselines carry no control-path latency model; their
	// zero sim-time is the comparison column, not an accident.
	for _, r := range rows {
		if r.Model != "snic" && r.SimMS != 0 {
			t.Errorf("%s/%s has nonzero control-path time %.2f", r.Model, r.Mode, r.SimMS)
		}
	}
}

// TestChurnJobsAreIndependent re-runs one cell in isolation and expects
// the exact row the full sweep produced: each (model, mode) job must
// depend only on its own derived stream, never on sweep-mates.
func TestChurnJobsAreIndependent(t *testing.T) {
	cfg := goldenChurnConfig()
	all, err := (&Runner{}).ChurnNF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo := &Runner{Workers: 1}
	again, err := solo.ChurnNF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(again) {
		t.Fatalf("row count changed: %d vs %d", len(all), len(again))
	}
	for i := range all {
		if all[i] != again[i] {
			t.Errorf("row %d differs:\n full: %+v\n solo: %+v", i, all[i], again[i])
		}
	}
}
