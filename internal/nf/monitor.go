package nf

import (
	"snic/internal/cpu"
	"snic/internal/hashmap"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/trace"
)

// Monitor is the flow monitor of §5.1: a hash map from 5-tuple to packet
// count. Its memory grows with the number of distinct flows observed,
// which is why it dominates Table 6 (361 MB over a five-minute CAIDA
// window) and why its time series (Figure 7) shows resize spikes.
type Monitor struct {
	arena  *mem.Arena
	counts *hashmap.Map

	// Stats.
	Packets uint64
}

// NewMonitor builds an empty monitor. If samples is non-nil it receives
// the live heap size after every allocation change (Figure 7's series).
func NewMonitor(samples func(live uint64)) *Monitor {
	a := &mem.Arena{Samples: samples}
	chargeImage(a)
	// Model the DPDK hugepage staging the paper observes at startup: a
	// temporary normal-memory block is allocated, copied into hugepages,
	// and freed — the first spike in Figure 7.
	const staging = 24 << 20
	a.Alloc(mem.SegHeap, staging)
	a.Free(mem.SegHeap, staging)
	return &Monitor{arena: a, counts: hashmap.New(a, 1024)}
}

// Arena implements NF.
func (m *Monitor) Arena() *mem.Arena { return m.arena }

// Process implements NF.
func (m *Monitor) Process(p *pkt.Packet) Verdict {
	m.Packets++
	m.counts.Add(hashmap.Key(p.Tuple.Key()), 1)
	return Pass
}

// Count returns the packet count recorded for a tuple.
func (m *Monitor) Count(t pkt.FiveTuple) uint64 {
	v, _ := m.counts.Get(hashmap.Key(t.Key()))
	return v
}

// Flows returns the number of distinct flows observed.
func (m *Monitor) Flows() int { return m.counts.Len() }

// NewStream implements NF: a counter upsert per packet over a large,
// flow-indexed region.
func (m *Monitor) NewStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr) cpu.Stream {
	region := m.counts.FootprintBytes()
	if region < 1<<20 {
		region = 1 << 20
	}
	tblBase := base + mem.Addr(pktSlot*64)
	return newPktStream(rng, pool, base, func(flow, payloadLen int, r *sim.Rand) packetCost {
		off := flowOffset(flow, region)
		return packetCost{
			parseInstr: 70,
			touches: []touch{
				{addr: tblBase + mem.Addr(off)},
				{addr: tblBase + mem.Addr(off), store: true},
			},
			tailInstr: 50,
		}
	})
}
