package nf

import (
	"testing"

	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/trace"
)

// TestPktStreamNextBatchMatchesNext drives two identically-seeded
// packet streams — one through Next, one through NextBatch at awkward
// buffer sizes — and demands the exact same op sequence. Each stream
// gets its own pool built from the same seed, because the pool's RNG
// draws are part of the sequence under test: batching must not move a
// packet's flow draw earlier or later than Next would.
func TestPktStreamNextBatchMatchesNext(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			cfg := SuiteConfig{Seed: 7}
			cfg.defaults()
			mkStream := func() cpu.Stream {
				f, err := New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pool := trace.NewICTF(sim.NewRand(99), 2000)
				return f.NewStream(sim.NewRand(3), pool, mem.Addr(1)<<32)
			}
			ref := mkStream()
			bat, ok := mkStream().(cpu.BatchStream)
			if !ok {
				t.Fatalf("%s stream does not implement cpu.BatchStream", name)
			}
			buf := make([]cpu.Op, 5) // smaller than most packets' op count
			var stash []cpu.Op
			for i := 0; i < 5000; i++ {
				if len(stash) == 0 {
					n := bat.NextBatch(buf)
					if n == 0 {
						t.Fatalf("op %d: NextBatch returned 0 from an infinite stream", i)
					}
					stash = append(stash, buf[:n]...)
				}
				want, ok := ref.Next()
				if !ok {
					t.Fatalf("op %d: Next ended on an infinite stream", i)
				}
				if got := stash[0]; got != want {
					t.Fatalf("%s op %d: batch %+v != next %+v", name, i, got, want)
				}
				stash = stash[1:]
			}
		})
	}
}

// TestPktStreamBatchStopsAtPacketBoundary pins the shared-pool safety
// property the batch path relies on: one NextBatch call never spans a
// packet boundary, so the pool's next flow draw happens no earlier than
// it would under Next.
func TestPktStreamBatchStopsAtPacketBoundary(t *testing.T) {
	cfg := SuiteConfig{Seed: 7}
	cfg.defaults()
	f, err := New("FW", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := trace.NewICTF(sim.NewRand(99), 2000)
	s, ok := f.NewStream(sim.NewRand(3), pool, mem.Addr(1)<<32).(*pktStream)
	if !ok {
		t.Fatal("Firewall stream is not a pktStream")
	}
	buf := make([]cpu.Op, 4096) // far larger than any packet's op count
	for i := 0; i < 200; i++ {
		n := s.NextBatch(buf)
		if n == 0 {
			t.Fatal("NextBatch returned 0")
		}
		if s.qi != len(s.queue) {
			t.Fatalf("call %d: batch of %d left %d ops of the packet behind",
				i, n, len(s.queue)-s.qi)
		}
		if n == len(buf) {
			t.Fatalf("call %d: batch filled the whole %d-op buffer: packet boundary ignored", i, n)
		}
	}
}

// streamCfg is the suite the stream-equivalence tests share: the paper's
// defaults except a smaller DPI ruleset, which keeps compilation quick
// while the automaton still spans thousands of Zipf rows.
func streamCfg() SuiteConfig {
	cfg := SuiteConfig{Seed: 7, DPIPatterns: 3000}
	cfg.defaults()
	return cfg
}

// opDigest folds ops into a running FNV-1a hash.
func opDigest(h uint64, ops []cpu.Op) uint64 {
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, op := range ops {
		mix(uint64(op.Kind))
		mix(uint64(op.Addr))
		mix(uint64(op.N))
	}
	return h
}

// TestStreamPacketsPinned runs every NF's stream for 5,000 packets two
// ways — whole packets through NextBatch and single ops through Next —
// and demands identical ops, plus a count and digest pinned from the
// implementation that built a fresh touch slice and a flow map for
// every packet. Packets reuse one touch buffer, so any aliasing across
// packets (or any drift in which packets take an insert path) shows up
// here as a different op sequence.
func TestStreamPacketsPinned(t *testing.T) {
	pinned := map[string]struct {
		ops    int
		digest uint64
	}{
		"FW":  {211418, 0xab4d93163c544f90},
		"DPI": {112594, 0x97202da14436affd},
		"NAT": {37178, 0xb0d27b3c42b29749},
		"LB":  {36089, 0x7cf73ee72675f65b},
		"LPM": {30533, 0xbe3b54f9b93d1c2f},
		"Mon": {35000, 0x48b9a53e5d747209},
	}
	cfg := streamCfg()
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			f, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() cpu.Stream {
				return f.NewStream(sim.NewRand(3), trace.NewICTF(sim.NewRand(99), 4000), mem.Addr(1)<<32)
			}
			bat := mk().(cpu.BatchStream)
			ref := mk()
			buf := make([]cpu.Op, 512)
			h := uint64(14695981039346656037)
			ops := 0
			for p := 0; p < 5000; p++ {
				n := bat.NextBatch(buf)
				for i, got := range buf[:n] {
					if want, _ := ref.Next(); got != want {
						t.Fatalf("packet %d op %d: NextBatch %+v != Next %+v", p, i, got, want)
					}
				}
				h = opDigest(h, buf[:n])
				ops += n
			}
			if want := pinned[name]; ops != want.ops || h != want.digest {
				t.Fatalf("5000 packets: %d ops, digest %#x; want %d ops, digest %#x",
					ops, h, want.ops, want.digest)
			}
		})
	}
}

// TestDPIMemoizedRowTable checks that a DPI stream sampling rows from
// the shared (rows, skew) table emits the same ops as one that builds
// its own sampler with sim.NewZipf, and that streams over the same
// automaton share a single table.
func TestDPIMemoizedRowTable(t *testing.T) {
	f, err := New("DPI", streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	d := f.(*DPI)
	rows := int(d.graph / 64)
	if rows > 1<<16 {
		rows = 1 << 16
	}
	direct := func(r *sim.Rand, rows int) *sim.Zipf { return sim.NewZipf(r, rows, dpiSkew) }
	pool := func() *trace.Pool { return trace.NewICTF(sim.NewRand(99), 2000) }
	memoized := d.NewStream(sim.NewRand(5), pool(), 0).(cpu.BatchStream)
	tab, ok := rowTables.Peek(zipfKey{rows: rows, skew: dpiSkew})
	if !ok {
		t.Fatalf("no memoized table for %d rows after NewStream", rows)
	}
	own := d.newStream(sim.NewRand(5), pool(), 0, direct).(cpu.BatchStream)
	a, b := make([]cpu.Op, 512), make([]cpu.Op, 512)
	for p := 0; p < 3000; p++ {
		n, m := memoized.NextBatch(a), own.NextBatch(b)
		if n != m {
			t.Fatalf("packet %d: %d ops from the memoized table, %d from NewZipf", p, n, m)
		}
		for i := range a[:n] {
			if a[i] != b[i] {
				t.Fatalf("packet %d op %d: memoized %+v != NewZipf %+v", p, i, a[i], b[i])
			}
		}
	}
	before := rowTables.Len()
	d.NewStream(sim.NewRand(6), pool(), 0)
	if again, _ := rowTables.Peek(zipfKey{rows: rows, skew: dpiSkew}); again != tab || rowTables.Len() != before {
		t.Fatalf("second stream rebuilt the table: %d -> %d entries", before, rowTables.Len())
	}
}

// TestNATInsertPathStopsAtMaxFlows pins the port-pool rule of the NAT
// stream: only the first maxFlows distinct flows take the insert path
// (two table stores), whatever order their packets arrive in.
func TestNATInsertPathStopsAtMaxFlows(t *testing.T) {
	n := NewNAT(0x0A000001)
	n.maxFlows = 50
	s := n.NewStream(sim.NewRand(3), trace.NewICTF(sim.NewRand(99), 400), 0).(cpu.BatchStream)
	buf := make([]cpu.Op, 64)
	inserts := 0
	for p := 0; p < 4000; p++ {
		stores := 0
		for _, op := range buf[:s.NextBatch(buf)] {
			if op.Kind == cpu.Store {
				stores++
			}
		}
		if stores > 1 { // the egress header write is the one store every packet makes
			inserts++
		}
	}
	if inserts != n.maxFlows {
		t.Fatalf("%d packets took the insert path, want %d", inserts, n.maxFlows)
	}
}

// TestStreamNextBatchDoesNotAllocate pins every NF stream's steady state
// at zero allocations per packet: once the touch buffer and op queue
// have grown to the NF's largest packet, later packets reuse them.
func TestStreamNextBatchDoesNotAllocate(t *testing.T) {
	cfg := streamCfg()
	for _, name := range Names {
		f, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := f.NewStream(sim.NewRand(3), trace.NewICTF(sim.NewRand(99), 2000), 0).(cpu.BatchStream)
		buf := make([]cpu.Op, 512)
		for p := 0; p < 2000; p++ {
			s.NextBatch(buf)
		}
		if avg := testing.AllocsPerRun(1000, func() { s.NextBatch(buf) }); avg != 0 {
			t.Errorf("%s: NextBatch allocates %.2f times per packet, want 0", name, avg)
		}
	}
}
