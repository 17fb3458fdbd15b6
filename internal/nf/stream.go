package nf

import (
	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/trace"
)

// touch describes one memory reference a packet handler makes.
type touch struct {
	addr  mem.Addr
	store bool
}

// packetCost is the per-packet work an NF's stream generator emits.
type packetCost struct {
	parseInstr uint32  // header parse + bookkeeping compute
	touches    []touch // table/state references
	tailInstr  uint32  // verdict/rewrite compute
}

// costFn computes the cost of one packet given the sampled flow and a
// per-NF scratch RNG. touches is the stream's reusable buffer, emptied:
// the cost function appends the packet's references to it and returns
// the result in packetCost.touches, so steady-state packets allocate
// nothing.
type costFn func(flow int, payloadLen int, rng *sim.Rand, touches []touch) packetCost

// pktStream converts per-packet costs into a cpu.Stream: for every packet
// it emits a few loads to the packet buffer (headers live in the NF's
// packet region), the NF-specific table touches, and the compute bursts
// around them. This mirrors how the paper's gem5 setup "fed packets
// directly into RAM and rewrote functions to directly access packets in
// memory" (§5.3).
type pktStream struct {
	pool    *trace.Pool
	rng     *sim.Rand
	cost    costFn
	pktBase mem.Addr // packet-buffer region (reused ring)
	pktRing uint64
	pktIdx  uint64

	touches []touch // reused across packets; see costFn
	queue   []cpu.Op
	qi      int
}

const pktSlot = 2048 // bytes per packet-buffer slot

func newPktStream(rng *sim.Rand, pool *trace.Pool, base mem.Addr, cost costFn) *pktStream {
	return &pktStream{
		pool:    pool,
		rng:     rng,
		cost:    cost,
		pktBase: base,
		pktRing: 64, // 64-slot RX ring, like a LiquidIO PB of 2 MB/32 KB
	}
}

// refill regenerates the op queue for the next packet. One packet's RNG
// draws happen atomically here, so batch and single-op consumers observe
// the same draw order.
func (s *pktStream) refill() {
	s.queue = s.queue[:0]
	s.qi = 0
	flow := s.pool.NextFlow()
	payloadLen := trace.IMIXLen(s.rng)
	c := s.cost(flow, payloadLen, s.rng, s.touches[:0])
	s.touches = c.touches

	// Packet arrival: read the descriptor + first lines of the packet.
	slot := s.pktBase + mem.Addr((s.pktIdx%s.pktRing)*pktSlot)
	s.pktIdx++
	s.queue = append(s.queue,
		cpu.Op{Kind: cpu.Load, Addr: slot},
		cpu.Op{Kind: cpu.Load, Addr: slot + 64},
		cpu.Op{Kind: cpu.Compute, N: c.parseInstr},
	)
	for _, t := range c.touches {
		k := cpu.Load
		if t.store {
			k = cpu.Store
		}
		s.queue = append(s.queue, cpu.Op{Kind: k, Addr: t.addr})
	}
	if c.tailInstr > 0 {
		s.queue = append(s.queue, cpu.Op{Kind: cpu.Compute, N: c.tailInstr})
	}
	// Egress: write the rewritten header back to the packet buffer.
	s.queue = append(s.queue, cpu.Op{Kind: cpu.Store, Addr: slot})
}

// Next implements cpu.Stream.
func (s *pktStream) Next() (cpu.Op, bool) {
	if s.qi >= len(s.queue) {
		s.refill()
	}
	op := s.queue[s.qi]
	s.qi++
	return op, true
}

// NextBatch implements cpu.BatchStream. It hands out at most the rest
// of the current packet: the workload pool is shared between co-located
// streams, so drawing the next packet's flow any earlier than Next would
// (i.e. before the current packet is consumed) would reorder the pool's
// RNG draws across cores and change the simulation. One packet per call
// still amortizes the per-op interface call across the packet's ops.
func (s *pktStream) NextBatch(buf []cpu.Op) int {
	if s.qi >= len(s.queue) {
		s.refill()
	}
	n := copy(buf, s.queue[s.qi:])
	s.qi += n
	return n
}

// flowOffset spreads a flow's state across a region of the given size,
// aligned to cache lines, deterministically per flow.
func flowOffset(flow int, region uint64) uint64 {
	h := uint64(flow+1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return (h % (region / 64)) * 64
}

// flowSet is a bitset over a pool's flow indices. The streams use it to
// send each flow's first packet down the insert path.
type flowSet struct {
	bits []uint64
	n    int // flows added so far
}

func newFlowSet(flows int) flowSet {
	return flowSet{bits: make([]uint64, (flows+63)/64)}
}

// add marks flow as seen and reports whether it was new.
func (s *flowSet) add(flow int) bool {
	w, b := flow>>6, uint64(1)<<(flow&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.n++
	return true
}
