package trace

import (
	"snic/internal/pkt"
	"snic/internal/sim"
)

// FrameSynth is the streaming load-generator behind fleet traffic
// bursts: it draws steered and stray frames one at a time from a single
// RNG with one reused payload buffer, so a burst of any size synthesizes
// in O(1) memory. The draw order per packet — payload bytes, then source
// IP, then source port — is pinned by the fleet scenario goldens, so it
// must never change.
//
// The returned packet's Payload aliases the synth's buffer; marshal or
// consume it before the next draw. Marshal and AppendMarshal copy the
// payload into the frame, so a frame outlives the draw that made it.
type FrameSynth struct {
	rng     *sim.Rand
	payload []byte
}

// NewFrameSynth builds a synthesizer drawing from rng with payloadBytes
// of pseudorandom payload per frame.
func NewFrameSynth(rng *sim.Rand, payloadBytes int) *FrameSynth {
	return &FrameSynth{rng: rng, payload: make([]byte, payloadBytes)}
}

// Steered returns the next load packet aimed at (dstIP, dstPort): a
// unique-ish random source endpoint in 10.0.0.0/16 over UDP, TTL 64.
func (s *FrameSynth) Steered(dstIP uint32, dstPort uint16) pkt.Packet {
	s.rng.Bytes(s.payload)
	return pkt.Packet{
		Tuple: pkt.FiveTuple{
			SrcIP:   0x0a000000 | s.rng.Uint32()&0xFFFF,
			DstIP:   dstIP,
			SrcPort: uint16(40000 + s.rng.Intn(20000)),
			DstPort: dstPort,
			Proto:   pkt.ProtoUDP,
		},
		TTL:     64,
		Payload: s.payload,
	}
}

// Stray returns the next frame that matches no steering rule (UDP port
// 1), exercising receiver drop paths.
func (s *FrameSynth) Stray() pkt.Packet {
	s.rng.Bytes(s.payload)
	return pkt.Packet{
		Tuple: pkt.FiveTuple{
			SrcIP: 0x0a000001, DstIP: 0x0a800001,
			SrcPort: 7, DstPort: 1, Proto: pkt.ProtoUDP,
		},
		TTL:     64,
		Payload: s.payload,
	}
}

// StrayCount draws how many stray frames accompany a burst of n steered
// packets (up to a quarter of the burst).
func (s *FrameSynth) StrayCount(n int) int {
	return s.rng.Intn(n/4 + 1)
}
