package pkt

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"

	"snic/internal/sim"
)

// refFinish is the byte-pair RFC 1071 loop finish replaced, kept as the
// reference the word-wide version must match. Its uint32 sum is exact
// while sum + 0xFFFF·⌈len(b)/2⌉ < 2^32, i.e. for any pseudo-header seed
// and inputs up to 64 KiB (the largest IPv4 datagram).
func refFinish(sum uint32, b []byte) uint16 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// maxRefLen and maxRefSeed bound the inputs on which refFinish is exact.
const (
	maxRefLen  = 64 << 10
	maxRefSeed = 1 << 20
)

func TestChecksumMatchesReference(t *testing.T) {
	rng := sim.NewRand(1071)
	seeds := []uint32{0, 1, 0xFFFF, 0x10000, 0x3FFFC, maxRefSeed - 1}
	for n := 0; n <= 200; n++ {
		zeros := make([]byte, n)
		ones := bytes.Repeat([]byte{0xFF}, n)
		random := make([]byte, n)
		rng.Bytes(random)
		for _, b := range [][]byte{zeros, ones, random} {
			for _, s := range seeds {
				if got, want := finish(s, b), refFinish(s, b); got != want {
					t.Fatalf("finish(%#x, % x) = %#04x, want %#04x", s, b, got, want)
				}
			}
		}
	}
	// The 0x0000 vs 0xFFFF case: an all-zero sum complements to 0xFFFF,
	// a nonzero sum that folds to 0xFFFF complements to 0x0000.
	if Checksum(make([]byte, 12)) != 0xFFFF || Checksum([]byte{0xFF, 0xFF}) != 0 {
		t.Fatal("zero and negative-zero sums are not told apart")
	}
	for _, n := range []int{1500, 9000, maxRefLen} {
		b := bytes.Repeat([]byte{0xFF}, n)
		if got, want := finish(maxRefSeed-1, b), refFinish(maxRefSeed-1, b); got != want {
			t.Fatalf("%d bytes of 0xFF: %#04x, want %#04x", n, got, want)
		}
	}
}

// FuzzChecksum compares the word-wide finish with the byte-pair loop over
// arbitrary bytes and starting sums.
func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), []byte{0xFF})
	f.Add(uint32(0xFFFF), bytes.Repeat([]byte{0xFF}, 33))
	f.Add(uint32(0x12345), make([]byte, 17))
	f.Add(pseudoHeaderSum(0x0A000001, 0xC0A80105, ProtoTCP, 1480), bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, 500))
	f.Fuzz(func(t *testing.T, sum uint32, b []byte) {
		sum %= maxRefSeed
		if len(b) > maxRefLen {
			b = b[:maxRefLen]
		}
		if got, want := finish(sum, b), refFinish(sum, b); got != want {
			t.Fatalf("finish(%#x, %d bytes) = %#04x, want %#04x", sum, len(b), got, want)
		}
	})
}

// FuzzParse feeds Parse arbitrary bytes. It must never panic, and any
// packet it accepts must survive Marshal and Parse again unchanged;
// AppendMarshal into a dirty buffer must produce Marshal's bytes.
func FuzzParse(f *testing.F) {
	udp := tuple()
	udp.Proto, udp.DstPort = ProtoUDP, 53
	for _, p := range []Packet{
		{SrcMAC: MAC{1, 2, 3, 4, 5, 6}, DstMAC: MAC{7, 8, 9, 10, 11, 12}, Tuple: tuple(), Payload: []byte("GET / HTTP/1.1\r\n")},
		{Tuple: udp, Payload: []byte("dns query"), TTL: 3},
		{Tuple: tuple(), Payload: []byte("inner"), VNI: 42},
		{Tuple: udp, VNI: 0xFFFFFF},
	} {
		f.Add(p.Marshal())
	}
	for _, p := range appendCases() {
		f.Add(p.AppendMarshal(dirty(0, 2048)))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := Parse(frame)
		if err != nil {
			return
		}
		if p.VNI == 0 && p.Tuple.Proto == ProtoUDP && p.Tuple.DstPort == VXLANPort {
			// A VXLAN inner frame with VNI 0 that is itself addressed to
			// the VXLAN port marshals unencapsulated, and Parse would then
			// decapsulate it: not a round trip Marshal can express.
			return
		}
		wire := p.Marshal()
		if got := p.AppendMarshal(dirty(3, len(wire)+3)); !bytes.Equal(got[3:], wire) {
			t.Fatalf("AppendMarshal into a dirty buffer differs from Marshal for %+v", p)
		}
		q, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-parse of %+v: %v", p, err)
		}
		if p.TTL == 0 {
			p.TTL = 64 // Marshal's default
		}
		if q.SrcMAC != p.SrcMAC || q.DstMAC != p.DstMAC || q.Tuple != p.Tuple ||
			q.TTL != p.TTL || q.VNI != p.VNI || !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", q, p)
		}
	})
}

var checksumSink uint16

func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{64, 594, 1518} {
		buf := make([]byte, n)
		sim.NewRand(uint64(n)).Bytes(buf)
		b.Run(strconv.Itoa(n)+"B", func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(buf)
			}
		})
	}
}
