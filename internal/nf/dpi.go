package nf

import (
	"snic/internal/ac"
	"snic/internal/cpu"
	"snic/internal/mem"
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
	blocking bool

	// Stats.
	Scanned  uint64
	Matches  uint64
	Alerts   []ac.Match
	keepLast int
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
	a.Alloc(mem.SegHeap, auto.MemoryBytes())
	return &DPI{arena: a, auto: auto, blocking: blocking, keepLast: 1024}, nil
}

// Arena implements NF.
func (d *DPI) Arena() *mem.Arena { return d.arena }

// Process implements NF.
func (d *DPI) Process(p *pkt.Packet) Verdict {
	d.Scanned++
	ms := d.auto.Scan(p.Payload, nil)
	if len(ms) == 0 {
		return Pass
	}
	d.Matches += uint64(len(ms))
	if len(d.Alerts) < d.keepLast {
		d.Alerts = append(d.Alerts, ms...)
	}
	if d.blocking {
		return Drop
	}
	return Pass
}

// NewStream implements NF. Each payload byte walks one graph row; the walk
// is concentrated near the automaton root (shallow states) with a tail of
// deep-state references, which is what makes DPI cache-hungry but not
// uniformly random.
func (d *DPI) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := d.auto.MemoryBytes()
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
	z := sim.NewZipf(rng.Fork(), rows, 1.2)
	scale := (region / 64) / uint64(rows)
	if scale == 0 {
		scale = 1
	}
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand) packetCost {
		// One graph-row reference per byte scanned; cap the emitted loads
		// and fold the rest into compute (SIMD batches in the crate).
		nloads := payloadLen / 2
		if nloads > 24 {
			nloads = 24
		}
		if nloads < 4 {
			nloads = 4
		}
		c := packetCost{parseInstr: 70, tailInstr: uint32(payloadLen) * 3}
		for i := 0; i < nloads; i++ {
			row := uint64(z.Next()) * scale
			c.touches = append(c.touches, touch{addr: graphBase + mem.Addr(row*64)})
		}
		return c
	})
}
