package pktio

import (
	"testing"

	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/tlb"
)

// benchVPP builds a switch with one 64-slot pipeline steering UDP
// frames, the default S-NIC ring geometry. One frame is pushed up front
// so that even a one-iteration run times the steady state.
func benchVPP(b *testing.B) (*mem.Physical, *Switch, *VPP) {
	b.Helper()
	pm, err := mem.NewPhysical(32<<20, page)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSwitch(pm, 2<<20, 1<<20)
	r, err := pm.AllocBytes(mem.FirstNF, page)
	if err != nil {
		b.Fatal(err)
	}
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	v, err := s.CreateVPP(mem.FirstNF, 256<<10, 256<<10, entries, 0, 64, 2048)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AddRule(Rule{Spec: MatchSpec{Proto: pkt.ProtoUDP, DstPortLo: 4000, DstPortHi: 4000}, Target: mem.FirstNF}); err != nil {
		b.Fatal(err)
	}
	if err := v.PushLocal(pm, benchFrame()); err != nil { // backs the ring's one DRAM frame
		b.Fatal(err)
	}
	v.Pop()
	return pm, s, v
}

func benchFrame() []byte {
	return (&pkt.Packet{
		Tuple:   pkt.FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a800000, SrcPort: 40000, DstPort: 4000, Proto: pkt.ProtoUDP},
		Payload: make([]byte, 512),
	}).Marshal()
}

// BenchmarkDeliver is Switch.Deliver end to end: parse with checksum
// verification, rule match, and the scheduler-TLB copy into the ring.
func BenchmarkDeliver(b *testing.B) {
	_, s, v := benchVPP(b)
	frame := benchFrame()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Deliver(frame); err != nil {
			b.Fatal(err)
		}
		v.Pop()
	}
}

// BenchmarkVPPPushPop is the ring alone: the scheduler-TLB copy of a
// frame into its slot and the descriptor dequeue, without the parse and
// rule match Deliver adds.
func BenchmarkVPPPushPop(b *testing.B) {
	pm, _, v := benchVPP(b)
	frame := benchFrame()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.PushLocal(pm, frame); err != nil {
			b.Fatal(err)
		}
		v.Pop()
	}
}
