package pktio

import (
	"bytes"
	"testing"

	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/sim"
	"snic/internal/tlb"
)

// refQueue is the receive queue as a plain growing slice: the slot
// counter and the pending descriptors are tracked independently, the
// way the queue was first written.
type refQueue struct {
	slots, slotSize int
	head            int
	queue           []Descriptor
	delivered       uint64
	dropped         uint64
}

func (r *refQueue) push(n int) {
	if len(r.queue) >= r.slots {
		r.dropped++
		return
	}
	r.queue = append(r.queue, Descriptor{VA: tlb.VAddr(r.head * r.slotSize), Len: n})
	r.head = (r.head + 1) % r.slots
	r.delivered++
}

func (r *refQueue) pop() (Descriptor, bool) {
	if len(r.queue) == 0 {
		return Descriptor{}, false
	}
	d := r.queue[0]
	r.queue = r.queue[1:]
	return d, true
}

// TestRingMatchesSliceQueue drives random push/pop sequences far past
// the ring's wrap-around, through both wire delivery and the local
// path, and checks every descriptor, depth, and counter against the
// slice reference, plus the frame bytes each popped descriptor names.
func TestRingMatchesSliceQueue(t *testing.T) {
	const slots, slotSize = 5, 2048
	pm, s := setup(t)
	r, err := pm.AllocBytes(mem.FirstNF, page)
	if err != nil {
		t.Fatal(err)
	}
	entries := []tlb.Entry{{VA: 0, PA: r.Start, Size: page, Perm: tlb.PermRW}}
	v, err := s.CreateVPP(mem.FirstNF, 256<<10, 256<<10, entries, 0, slots, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRule(Rule{Spec: MatchSpec{Proto: pkt.ProtoUDP}, Target: mem.FirstNF}); err != nil {
		t.Fatal(err)
	}
	ref := &refQueue{slots: slots, slotSize: slotSize}
	rng := sim.NewRand(16)
	var sent [][]byte // frames in flight, in reference-queue order
	for step := 0; step < 4000; step++ {
		// Bias toward pushes for the first half (the ring sits full and
		// tail-drops), toward pops for the second (it drains and wraps).
		pushBias := 3
		if step >= 2000 {
			pushBias = 1
		}
		if rng.Intn(5) < pushBias {
			p := pkt.Packet{
				Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: uint16(step), DstPort: 9, Proto: pkt.ProtoUDP},
				Payload: make([]byte, rng.Intn(slotSize-100)),
			}
			rng.Bytes(p.Payload)
			frame := p.Marshal()
			if rng.Intn(2) == 0 {
				if _, err := s.Deliver(frame); err != nil {
					t.Fatalf("step %d: deliver: %v", step, err)
				}
			} else if err := v.PushLocal(pm, frame); err != nil {
				t.Fatalf("step %d: push: %v", step, err)
			}
			if len(ref.queue) < slots {
				sent = append(sent, frame)
			}
			ref.push(len(frame))
		} else {
			got, ok := v.Pop()
			want, wantOK := ref.pop()
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Pop = %+v %v, want %+v %v", step, got, ok, want, wantOK)
			}
			if ok {
				raw, err := v.ReadFrame(pm, got)
				if err != nil {
					t.Fatalf("step %d: read: %v", step, err)
				}
				if !bytes.Equal(raw, sent[0]) {
					t.Fatalf("step %d: popped frame bytes differ from the frame pushed", step)
				}
				sent = sent[1:]
			}
		}
		if v.Pending() != len(ref.queue) || v.Delivered != ref.delivered || v.DroppedFull != ref.dropped {
			t.Fatalf("step %d: pending/delivered/dropped = %d/%d/%d, want %d/%d/%d", step,
				v.Pending(), v.Delivered, v.DroppedFull, len(ref.queue), ref.delivered, ref.dropped)
		}
	}
	if ref.delivered < 10*slots || ref.dropped == 0 {
		t.Fatalf("sequence too tame: %d delivered, %d dropped", ref.delivered, ref.dropped)
	}
}

// TestDeliverDoesNotAllocate pins the steady-state receive path: parse,
// rule match, ring push, and pop allocate nothing per frame.
func TestDeliverDoesNotAllocate(t *testing.T) {
	pm, s := setup(t)
	v, _ := makeVPP(t, pm, s, mem.FirstNF)
	if err := s.AddRule(Rule{Spec: MatchSpec{Proto: pkt.ProtoTCP}, Target: mem.FirstNF}); err != nil {
		t.Fatal(err)
	}
	frame := frameFor(80, "steady state")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Deliver(frame); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Pop(); !ok {
			t.Fatal("frame not queued")
		}
	})
	if allocs != 0 {
		t.Fatalf("Deliver+Pop allocates %.1f times per frame", allocs)
	}
}
