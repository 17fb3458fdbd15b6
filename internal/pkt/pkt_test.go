package pkt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"snic/internal/sim"
)

func tuple() FiveTuple {
	return FiveTuple{
		SrcIP: 0x0A000001, DstIP: 0xC0A80105,
		SrcPort: 12345, DstPort: 80, Proto: ProtoTCP,
	}
}

func TestMarshalParseTCP(t *testing.T) {
	p := Packet{
		SrcMAC:  MAC{1, 2, 3, 4, 5, 6},
		DstMAC:  MAC{7, 8, 9, 10, 11, 12},
		Tuple:   tuple(),
		Payload: []byte("GET / HTTP/1.1\r\n"),
	}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.SrcMAC != p.SrcMAC || got.DstMAC != p.DstMAC {
		t.Fatalf("headers mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
	if got.TTL != 64 {
		t.Fatalf("default TTL = %d", got.TTL)
	}
}

func TestMarshalParseUDP(t *testing.T) {
	ft := tuple()
	ft.Proto = ProtoUDP
	ft.DstPort = 53
	p := Packet{Tuple: ft, Payload: []byte("dns query")}
	got, err := Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != ft || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseDetectsCorruptedIPHeader(t *testing.T) {
	p := Packet{Tuple: tuple(), Payload: []byte("x")}
	f := p.Marshal()
	f[EthHeaderLen+16] ^= 0xFF // flip dst IP byte
	if _, err := Parse(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseDetectsCorruptedPayload(t *testing.T) {
	p := Packet{Tuple: tuple(), Payload: []byte("sensitive bytes")}
	f := p.Marshal()
	f[len(f)-1] ^= 0xFF
	if _, err := Parse(f); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseTruncated(t *testing.T) {
	p := Packet{Tuple: tuple(), Payload: []byte("hello")}
	f := p.Marshal()
	for _, n := range []int{0, 5, EthHeaderLen, EthHeaderLen + 10} {
		if _, err := Parse(f[:n]); err == nil {
			t.Fatalf("parsed %d-byte prefix", n)
		}
	}
}

func TestParseNonIPv4(t *testing.T) {
	f := make([]byte, 64)
	f[12], f[13] = 0x86, 0xDD // IPv6 ethertype
	if _, err := Parse(f); !errors.Is(err, ErrNotIPv4) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseBadProto(t *testing.T) {
	p := Packet{Tuple: tuple(), Payload: []byte("x")}
	f := p.Marshal()
	ip := f[EthHeaderLen:]
	ip[9] = 47 // GRE
	// refresh header checksum
	ip[10], ip[11] = 0, 0
	ck := Checksum(ip[:IPv4HeaderLen])
	ip[10], ip[11] = byte(ck>>8), byte(ck)
	if _, err := Parse(f); !errors.Is(err, ErrBadProto) {
		t.Fatalf("err = %v", err)
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	p := Packet{
		SrcMAC:  MAC{1, 1, 1, 1, 1, 1},
		DstMAC:  MAC{2, 2, 2, 2, 2, 2},
		Tuple:   tuple(),
		Payload: []byte("tenant traffic"),
		VNI:     42424,
	}
	f := p.Marshal()
	got, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.VNI != 42424 {
		t.Fatalf("VNI = %d", got.VNI)
	}
	if got.Tuple != p.Tuple || !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("inner frame mismatch: %+v", got)
	}
}

func TestVXLANOuterIsUDP4789(t *testing.T) {
	p := Packet{Tuple: tuple(), VNI: 7, Payload: []byte("x")}
	f := p.Marshal()
	// Parse just the outer envelope.
	outer, err := parsePlain(f)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Tuple.Proto != ProtoUDP || outer.Tuple.DstPort != VXLANPort {
		t.Fatalf("outer = %+v", outer.Tuple)
	}
}

func TestFiveTupleKeyUniqueness(t *testing.T) {
	a, b := tuple(), tuple()
	b.SrcPort++
	if a.Key() == b.Key() {
		t.Fatal("distinct tuples share a key")
	}
	if a.Key() != tuple().Key() {
		t.Fatal("equal tuples differ in key")
	}
}

func TestFiveTupleReverse(t *testing.T) {
	a := tuple()
	r := a.Reverse()
	if r.SrcIP != a.DstIP || r.DstPort != a.SrcPort || r.Proto != a.Proto {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != a {
		t.Fatal("double reverse not identity")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of a buffer plus its
	// checksum folds to zero.
	b := []byte{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06,
		0x00, 0x00, 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c}
	ck := Checksum(b)
	b[10], b[11] = byte(ck>>8), byte(ck)
	if Checksum(b) != 0 {
		t.Fatal("checksum does not self-verify")
	}
}

func TestStringFormats(t *testing.T) {
	if (MAC{0xDE, 0xAD, 0, 0, 0, 1}).String() != "de:ad:00:00:00:01" {
		t.Fatal("MAC format")
	}
	if tuple().String() != "10.0.0.1:12345->192.168.1.5:80/6" {
		t.Fatalf("tuple format = %s", tuple().String())
	}
}

// Property: Marshal/Parse round-trips arbitrary payloads and tuples.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint16, udp bool, vni uint32) bool {
		rng := sim.NewRand(seed)
		payload := make([]byte, int(n)%1400)
		rng.Bytes(payload)
		ft := FiveTuple{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: ProtoTCP,
		}
		if udp {
			ft.Proto = ProtoUDP
			if ft.DstPort == VXLANPort {
				ft.DstPort++ // avoid accidental decap of garbage
			}
		}
		p := Packet{Tuple: ft, Payload: payload, VNI: vni % 2}
		got, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		if p.VNI != 0 && got.VNI != p.VNI {
			return false
		}
		return got.Tuple == ft && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single bit flip in a TCP frame is detected by a checksum
// (header or L4) or a structural check.
func TestBitFlipDetectedProperty(t *testing.T) {
	p := Packet{Tuple: tuple(), Payload: []byte("integrity matters here")}
	f0 := p.Marshal()
	rng := sim.NewRand(77)
	for i := 0; i < 200; i++ {
		f := append([]byte(nil), f0...)
		bit := rng.Intn(len(f) * 8)
		if bit < EthHeaderLen*8 {
			continue // MAC addresses are not checksummed (as in real Ethernet sans FCS)
		}
		f[bit/8] ^= 1 << (bit % 8)
		got, err := Parse(f)
		if err == nil && got.Tuple == p.Tuple && bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("undetected bit flip at %d", bit)
		}
	}
}

// appendCases are the frames the AppendMarshal differential test and
// the FuzzParse seeds share: UDP, TCP (whose seq/ack/window bytes
// Marshal leaves zero), and VXLAN with a non-zero VNI.
func appendCases() []Packet {
	udp := tuple()
	udp.Proto, udp.DstPort = ProtoUDP, 4000
	return []Packet{
		{SrcMAC: MAC{2, 0, 0, 0, 0, 1}, Tuple: udp, Payload: bytes.Repeat([]byte{0x5A}, 700), TTL: 9},
		{DstMAC: MAC{2, 0, 0, 0, 0, 2}, Tuple: tuple(), Payload: []byte("GET /index.html HTTP/1.1\r\n")},
		{Tuple: tuple(), Payload: []byte{}},
		{Tuple: udp, Payload: []byte("tenant frame"), VNI: 0x00ABCD},
	}
}

// dirty returns an n-byte buffer of 0xFF with the given spare capacity.
func dirty(n, spare int) []byte {
	b := bytes.Repeat([]byte{0xFF}, n+spare)
	return b[:n]
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	for i, p := range appendCases() {
		want := p.Marshal()
		for _, c := range []struct {
			name       string
			len, spare int
		}{
			{"shorter", 0, len(want) / 2},
			{"exact", 0, len(want)},
			{"longer", 0, len(want) + 300},
			{"prefixed", 5, len(want)},
		} {
			dst := dirty(c.len, c.spare)
			got := p.AppendMarshal(dst)
			if !bytes.Equal(got[:c.len], dst[:c.len]) {
				t.Fatalf("case %d %s: prefix changed", i, c.name)
			}
			if !bytes.Equal(got[c.len:], want) {
				t.Fatalf("case %d %s: AppendMarshal differs from Marshal\n got %x\nwant %x", i, c.name, got[c.len:], want)
			}
			fits := len(want) <= c.spare
			if reused := &got[0] == &dst[:1][0]; reused != fits {
				t.Fatalf("case %d %s: reused dst = %v, want %v", i, c.name, reused, fits)
			}
			q, err := Parse(got[c.len:])
			if err != nil {
				t.Fatalf("case %d %s: parse: %v", i, c.name, err)
			}
			if q.Tuple != p.Tuple || q.VNI != p.VNI || !bytes.Equal(q.Payload, p.Payload) {
				t.Fatalf("case %d %s: round trip changed the packet: %+v", i, c.name, q)
			}
		}
	}
}
