package exp

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"snic/internal/engine"
)

// goldenReplayConfig is the scaled-down replay shape the golden suite
// and the worker-invariance sweep pin (full scale stays flag-gated
// behind `snicbench -scale full`).
func goldenReplayConfig() ReplayConfig {
	return ReplayConfig{Flows: 50000, PerFlow: 3, Shards: 4, Seed: 0xCA1DA}
}

func TestGoldenReplay(t *testing.T) {
	res, err := (&Runner{}).ReplayCAIDA(goldenReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "replay", RenderReplay(res).String())
}

// TestReplayShardedSerialEquivalence: the sharded decomposition is part
// of the experiment definition, so the equivalence that matters is
// serial-vs-parallel execution of the same decomposition — one worker
// walking shards in order must render byte-identically to a full pool.
func TestReplayShardedSerialEquivalence(t *testing.T) {
	cfg := goldenReplayConfig()
	serial := &Runner{Workers: 1}
	parallel := &Runner{Workers: 8}
	a, err := serial.ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serial and parallel sharded replays differ")
	}
	if got, want := RenderReplay(a).String(), RenderReplay(b).String(); got != want {
		t.Fatal("rendered replays differ")
	}
	if a.Flows != cfg.Flows || a.Packets != cfg.Flows*uint64(cfg.PerFlow) {
		t.Fatalf("merged totals %d flows / %d packets, want %d / %d",
			a.Flows, a.Packets, cfg.Flows, cfg.Flows*uint64(cfg.PerFlow))
	}
}

// TestReplayCheckpointResume interrupts the replay at several per-run
// packet budgets — each attempt a "fresh process" that only sees the
// checkpoint file — and demands the final merged result be
// byte-identical to an uninterrupted run.
func TestReplayCheckpointResume(t *testing.T) {
	cfg := ReplayConfig{Flows: 6000, PerFlow: 3, Shards: 3, Seed: 0xCA1DA, CheckpointEvery: 500}
	want, err := (&Runner{}).ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantText := RenderReplay(want).String()
	for _, stop := range []uint64{1, 777, 5000} {
		icfg := cfg
		icfg.CheckpointPath = filepath.Join(t.TempDir(), "replay.ckpt")
		icfg.StopAfter = stop
		var got ReplayResult
		for attempt := 0; ; attempt++ {
			if attempt > 20000 {
				t.Fatalf("stop=%d: did not converge", stop)
			}
			got, err = (&Runner{}).ReplayCAIDA(icfg)
			if errors.Is(err, engine.ErrInterrupted) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		// The config rides inside the result; compare everything else.
		got.Config, want.Config = ReplayConfig{}, ReplayConfig{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop=%d: resumed result differs from uninterrupted run", stop)
		}
		want.Config = cfg
		got.Config = cfg
		if RenderReplay(got).String() != wantText {
			t.Fatalf("stop=%d: rendered output differs", stop)
		}
	}
}

// TestReplayFullScaleSmokeBoundedHeap is the CI smoke form of the
// full-scale claim: >= 1 M flows streamed under a bounded-heap
// assertion. Materializing the flows would need >= 29 MB for the tuples
// alone (1.2 M x 24 B) plus the monitor's table; the streaming replay
// must stay within a few MB of steady heap.
func TestReplayFullScaleSmokeBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale smoke skipped in -short")
	}
	cfg := ReplayConfig{Flows: 1_200_000, PerFlow: 1, Shards: 8, Seed: 0xCA1DA}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := (&Runner{}).ReplayCAIDA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Flows != cfg.Flows || res.Packets != cfg.Flows {
		t.Fatalf("merged %d flows / %d packets, want %d each", res.Flows, res.Packets, cfg.Flows)
	}
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 8<<20 {
		t.Fatalf("replay retained %d bytes of heap (bound 8 MiB)", retained)
	}
	// Cumulative allocation must also be flow-count independent: the
	// generators reuse their state, so total churn stays far below what
	// per-packet slices would cost (>= 28 B x 1.2 M packets).
	if churn := after.TotalAlloc - before.TotalAlloc; churn > 16<<20 {
		t.Fatalf("replay allocated %d bytes total (bound 16 MiB)", churn)
	}
	// The trajectory must show the paper's phenomenon at this scale:
	// every shard resized its table repeatedly on the way to 150 k flows.
	for _, sh := range res.Shards {
		if sh.Resizes < 5 {
			t.Fatalf("shard %d resized only %d times", sh.Shard, sh.Resizes)
		}
	}
}
