package nf

import (
	"snic/internal/ac"
	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/memo"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// DPI is the pattern-matching NF of §5.1: an Aho–Corasick automaton over
// an IDS-style ruleset (the paper uses 33,471 patterns from six open
// rulesets). A payload that matches any pattern is reported (and, in
// blocking mode, dropped).
type DPI struct {
	arena    *mem.Arena
	auto     *ac.Automaton
	graph    uint64 // auto.MemoryBytes(), fixed once compiled
	blocking bool

	// Stats. Alerts holds the first alertCap matches, in scan order.
	Scanned  uint64
	Matches  uint64
	Alerts   []ac.Match
	alertCap int
	scratch  []ac.Match // reused Scan buffer
}

// NewDPI compiles patterns into a DPI engine. blocking selects drop-on-
// match (IPS) vs report-only (IDS).
func NewDPI(patterns [][]byte, blocking bool) (*DPI, error) {
	a := &mem.Arena{}
	chargeImage(a)
	auto, err := ac.Compile(patterns)
	if err != nil {
		return nil, err
	}
	graph := auto.MemoryBytes()
	a.Alloc(mem.SegHeap, graph)
	return &DPI{arena: a, auto: auto, graph: graph, blocking: blocking, alertCap: 1024}, nil
}

// Arena implements NF.
func (d *DPI) Arena() *mem.Arena { return d.arena }

// Process implements NF.
func (d *DPI) Process(p *pkt.Packet) Verdict {
	d.Scanned++
	ms := d.auto.Scan(p.Payload, d.scratch[:0])
	d.scratch = ms
	if len(ms) == 0 {
		return Pass
	}
	d.Matches += uint64(len(ms))
	if room := d.alertCap - len(d.Alerts); room > 0 {
		d.Alerts = append(d.Alerts, ms[:min(room, len(ms))]...)
	}
	if d.blocking {
		return Drop
	}
	return Pass
}

// dpiSkew is the Zipf exponent of graph-row popularity.
const dpiSkew = 1.2

// zipfKey identifies one row-popularity table.
type zipfKey struct {
	rows int
	skew float64
}

// rowTables shares one Zipf table per (rows, skew) across every DPI
// stream in the process. Building a table costs one math.Pow per row,
// and the Figure 5 sweeps build thousands of streams over the same few
// automaton sizes.
var rowTables memo.Cache[zipfKey, *sim.ZipfTable]

// rowZipf returns a sampler over the memoized table for rows, drawing
// from rng.
func rowZipf(rng *sim.Rand, rows int) *sim.Zipf {
	k := zipfKey{rows: rows, skew: dpiSkew}
	return rowTables.Get(k, func() *sim.ZipfTable {
		return sim.NewZipfTable(k.rows, k.skew)
	}).WithRand(rng)
}

// NewStream implements NF. Each payload byte walks one graph row; the walk
// is concentrated near the automaton root (shallow states) with a tail of
// deep-state references, which is what makes DPI cache-hungry but not
// uniformly random.
func (d *DPI) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	return d.newStream(rng, pool, base, rowZipf)
}

// newStream builds the stream with rows sampled by zipf(rng, rows).
func (d *DPI) newStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr, zipf func(*sim.Rand, int) *sim.Zipf) cpu.Stream {
	region := d.graph
	if region == 0 {
		region = 64
	}
	graphBase := base + mem.Addr(pktSlot*64)
	// Zipf over graph rows: hot rows = states near the root.
	rows := int(region / 64)
	if rows < 1 {
		rows = 1
	}
	if rows > 1<<16 {
		rows = 1 << 16 // sampling grid; scaled below
	}
	z := zipf(rng.Fork(), rows)
	scale := (region / 64) / uint64(rows)
	if scale == 0 {
		scale = 1
	}
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand, touches []touch) packetCost {
		// One graph-row reference per byte scanned; cap the emitted loads
		// and fold the rest into compute (SIMD batches in the crate).
		nloads := payloadLen / 2
		if nloads > 24 {
			nloads = 24
		}
		if nloads < 4 {
			nloads = 4
		}
		c := packetCost{parseInstr: 70, touches: touches, tailInstr: uint32(payloadLen) * 3}
		for i := 0; i < nloads; i++ {
			row := uint64(z.Next()) * scale
			c.touches = append(c.touches, touch{addr: graphBase + mem.Addr(row*64)})
		}
		return c
	})
}
