package device

import (
	"bytes"
	"testing"

	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
)

// storedFrame finds where the device keeps a delivered frame and
// returns a function that re-reads those bytes: through the function's
// own Read when the frame sits in its reservation (S-NIC rings, the
// Agilio and BlueField RX areas), otherwise through MgmtRead over plain
// DRAM (LiquidIO's shared packet pool).
func storedFrame(t *testing.T, dev NIC, id FuncID, frame []byte) func() []byte {
	t.Helper()
	region, _ := dev.Region(id)
	own := make([]byte, region.Frames*dev.FrameSize())
	if err := dev.Read(id, 0, own); err == nil {
		if off := bytes.Index(own, frame); off >= 0 {
			return func() []byte {
				b := make([]byte, len(frame))
				if err := dev.Read(id, uint64(off), b); err != nil {
					t.Fatal(err)
				}
				return b
			}
		}
	}
	dram := make([]byte, dev.MemBytes())
	if err := dev.MgmtRead(0, dram); err != nil {
		t.Fatalf("frame not in the reservation and DRAM unreadable: %v", err)
	}
	pa := bytes.Index(dram, frame)
	if pa < 0 {
		t.Fatal("delivered frame not found in device memory")
	}
	return func() []byte {
		b := make([]byte, len(frame))
		if err := dev.MgmtRead(mem.Addr(pa), b); err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// TestRetrieveIntoBuffer checks Retrieve's dst contract on every model:
// a reused buffer yields the same bytes as a fresh one, across frames
// of different lengths, and the result never aliases device memory.
func TestRetrieveIntoBuffer(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			dev := build(t, model)
			id, err := dev.Launch(FuncSpec{
				Name: "rx", MemBytes: 512 << 10,
				Rules: []pktio.MatchSpec{{Proto: pkt.ProtoUDP, DstPortLo: 4000, DstPortHi: 4000}},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(7)
			mk := func(n int) []byte {
				p := pkt.Packet{
					Tuple:   pkt.FiveTuple{SrcIP: rng.Uint32(), DstIP: 2, SrcPort: 9, DstPort: 4000, Proto: pkt.ProtoUDP},
					Payload: make([]byte, n),
				}
				rng.Bytes(p.Payload)
				return p.Marshal()
			}
			inject := func(frame []byte) {
				t.Helper()
				if to, err := dev.Inject(frame); err != nil || to != id {
					t.Fatalf("inject: to %d, err %v", to, err)
				}
			}

			// Reused and fresh buffers agree.
			frame := mk(300)
			inject(frame)
			inject(frame)
			fresh, err := dev.Retrieve(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf := bytes.Repeat([]byte{0xEE}, 2048)
			reused, err := dev.Retrieve(id, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, frame) || !bytes.Equal(reused, fresh) {
				t.Fatal("Retrieve into a buffer differs from Retrieve(id, nil)")
			}
			if &reused[0] != &buf[0] {
				t.Fatal("Retrieve did not use a buffer with room for the frame")
			}

			// One buffer across frames that shrink and grow past its capacity.
			buf = nil
			for _, n := range []int{900, 40, 600, 1400, 0, 1200} {
				frame := mk(n)
				inject(frame)
				got, err := dev.Retrieve(id, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, frame) {
					t.Fatalf("payload %d: reused buffer returned a different frame", n)
				}
				buf = got
			}

			// The result is the caller's: mutating it leaves the device's
			// copy intact.
			frame = mk(500)
			inject(frame)
			reread := storedFrame(t, dev, id, frame)
			got, err := dev.Retrieve(id, buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				got[i] ^= 0xFF
			}
			if !bytes.Equal(reread(), frame) {
				t.Fatal("mutating Retrieve's result changed device memory")
			}
		})
	}
}

// TestSNICBurstPathDoesNotAllocate pins the S-NIC adapter's per-frame
// burst path — marshal, inject, retrieve, and the write/read round
// trip — at zero allocations with reused buffers.
func TestSNICBurstPathDoesNotAllocate(t *testing.T) {
	dev := build(t, "snic")
	id, err := dev.Launch(FuncSpec{
		Name: "rx", MemBytes: 512 << 10,
		Rules: []pktio.MatchSpec{{Proto: pkt.ProtoUDP}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pkt.Packet{
		Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4000, Proto: pkt.ProtoUDP},
		Payload: make([]byte, 256),
	}
	var tx, rx []byte
	allocs := testing.AllocsPerRun(200, func() {
		tx = p.AppendMarshal(tx[:0])
		if _, err := dev.Inject(tx); err != nil {
			t.Fatal(err)
		}
		if rx, err = dev.Retrieve(id, rx); err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(id, 0, rx); err != nil {
			t.Fatal(err)
		}
		if err := dev.Read(id, 0, rx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("S-NIC burst path allocates %.1f times per frame", allocs)
	}
}
