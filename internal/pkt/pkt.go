// Package pkt implements the packet formats the NIC moves: Ethernet II,
// IPv4, TCP/UDP, and VXLAN encapsulation (RFC 7348), with real header
// layouts and internet checksums. Network functions parse and rewrite
// these frames exactly as they would on hardware; the VXLAN support is
// what lets an S-NIC function act as a tenant-visible Layer-2 endpoint
// (§4.4).
package pkt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Protocol numbers used by the NFs.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Header sizes in bytes.
const (
	EthHeaderLen   = 14
	IPv4HeaderLen  = 20
	TCPHeaderLen   = 20
	UDPHeaderLen   = 8
	VXLANHeaderLen = 8
	// VXLANPort is the IANA-assigned VXLAN UDP port.
	VXLANPort uint16 = 4789
	// EtherTypeIPv4 identifies IPv4 payloads in the Ethernet header.
	EtherTypeIPv4 uint16 = 0x0800
)

// MAC is an Ethernet address.
type MAC [6]byte

// String renders the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// FiveTuple is the flow identifier every switching rule and NF keys on.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Key packs the tuple into a fixed 16-byte key for flow tables.
func (ft FiveTuple) Key() [16]byte {
	var k [16]byte
	binary.BigEndian.PutUint32(k[0:], ft.SrcIP)
	binary.BigEndian.PutUint32(k[4:], ft.DstIP)
	binary.BigEndian.PutUint16(k[8:], ft.SrcPort)
	binary.BigEndian.PutUint16(k[10:], ft.DstPort)
	k[12] = ft.Proto
	return k
}

// Reverse returns the tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// String renders "src:port -> dst:port/proto".
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		ipString(ft.SrcIP), ft.SrcPort, ipString(ft.DstIP), ft.DstPort, ft.Proto)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Packet is a parsed frame.
type Packet struct {
	SrcMAC  MAC
	DstMAC  MAC
	Tuple   FiveTuple
	TTL     uint8
	Payload []byte // L4 payload
	VNI     uint32 // VXLAN network identifier of the inner frame; 0 if none
}

// Checksum computes the RFC 1071 internet checksum of b.
func Checksum(b []byte) uint16 { return finish(0, b) }

// pseudoHeaderSum computes the TCP/UDP pseudo-header partial sum.
func pseudoHeaderSum(src, dst uint32, proto uint8, l4len int) uint32 {
	var sum uint32
	sum += src >> 16
	sum += src & 0xFFFF
	sum += dst >> 16
	sum += dst & 0xFFFF
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// finish adds b's big-endian 16-bit words (an odd last byte is the high
// byte of a final word) to the partial sum and returns the complemented
// one's-complement sum. It adds eight bytes at a time into a 64-bit
// accumulator, carrying end-around. 2^16 ≡ 1 modulo 2^16−1, so folding
// that accumulator to 16 bits gives the same sum as adding the 16-bit
// words one by one; like that sum, it is zero only when sum and every
// word are zero, which keeps 0x0000 and 0xFFFF apart.
func finish(sum uint32, b []byte) uint16 {
	acc, c := uint64(sum), uint64(0)
	// Four words per iteration: the one-word loop alone runs at half the speed.
	for ; len(b) >= 32; b = b[32:] {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), c)
	}
	for ; len(b) >= 8; b = b[8:] {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
	}
	if len(b) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		acc, c = bits.Add64(acc, uint64(b[0])<<8, c)
	}
	// This cannot wrap: acc = 2^64−1 with a carry out of the last add
	// needs the same state before that add, and acc starts below 2^32.
	acc += c
	for acc > 0xFFFF {
		acc = acc>>16 + acc&0xFFFF
	}
	return ^uint16(acc)
}

// Marshal serializes p as an Ethernet/IPv4/{TCP,UDP} frame with correct
// lengths and checksums. If p.VNI != 0 the frame is VXLAN-encapsulated:
// the inner frame is built first, then wrapped in an outer
// Ethernet/IPv4/UDP(4789)/VXLAN envelope reusing the same addresses (the
// datacenter underlay would rewrite the outer header in transit).
func (p *Packet) Marshal() []byte { return p.AppendMarshal(nil) }

// AppendMarshal appends the frame Marshal would return to dst and
// returns the extended slice. A plain frame is written into dst's spare
// capacity when it fits, so a caller that passes the previous frame
// back as buf[:0] marshals without allocating; every header byte is
// written, so nothing stale in that capacity survives into the frame.
// A VXLAN frame (p.VNI != 0) still allocates its inner frame.
func (p *Packet) AppendMarshal(dst []byte) []byte {
	if p.VNI == 0 {
		return appendPlain(dst, p)
	}
	inner := appendPlain(nil, p)
	return appendVXLAN(dst, p.VNI, inner, p.SrcMAC, p.DstMAC, p.Tuple.SrcIP, p.Tuple.DstIP)
}

func appendPlain(dst []byte, p *Packet) []byte {
	l4hdr := TCPHeaderLen
	if p.Tuple.Proto == ProtoUDP {
		l4hdr = UDPHeaderLen
	}
	hdr := EthHeaderLen + IPv4HeaderLen + l4hdr
	start := len(dst)
	dst = slices.Grow(dst, hdr+len(p.Payload))[:start+hdr+len(p.Payload)]
	f := dst[start:]
	// Zero the headers: TOS, IP id/fragment, and TCP seq/ack/flags/
	// window/urgent are never set below.
	clear(f[:hdr])
	// Ethernet.
	copy(f[0:6], p.DstMAC[:])
	copy(f[6:12], p.SrcMAC[:])
	binary.BigEndian.PutUint16(f[12:], EtherTypeIPv4)
	// IPv4.
	ip := f[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(IPv4HeaderLen+l4hdr+len(p.Payload)))
	ttl := p.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = p.Tuple.Proto
	binary.BigEndian.PutUint32(ip[12:], p.Tuple.SrcIP)
	binary.BigEndian.PutUint32(ip[16:], p.Tuple.DstIP)
	binary.BigEndian.PutUint16(ip[10:], Checksum(ip[:IPv4HeaderLen]))
	// L4.
	l4 := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(l4[2:], p.Tuple.DstPort)
	l4len := l4hdr + len(p.Payload)
	if p.Tuple.Proto == ProtoUDP {
		binary.BigEndian.PutUint16(l4[4:], uint16(l4len))
		copy(l4[UDPHeaderLen:], p.Payload)
		ck := finish(pseudoHeaderSum(p.Tuple.SrcIP, p.Tuple.DstIP, ProtoUDP, l4len), l4[:l4len])
		binary.BigEndian.PutUint16(l4[6:], ck)
	} else {
		l4[12] = 5 << 4 // data offset
		copy(l4[TCPHeaderLen:], p.Payload)
		ck := finish(pseudoHeaderSum(p.Tuple.SrcIP, p.Tuple.DstIP, p.Tuple.Proto, l4len), l4[:l4len])
		binary.BigEndian.PutUint16(l4[16:], ck)
	}
	return dst
}

// Errors returned by Parse.
var (
	ErrTruncated   = fmt.Errorf("pkt: truncated frame")
	ErrNotIPv4     = fmt.Errorf("pkt: not an IPv4 frame")
	ErrBadChecksum = fmt.Errorf("pkt: bad checksum")
	ErrBadProto    = fmt.Errorf("pkt: unsupported L4 protocol")
)

// Parse decodes a frame produced by Marshal (or hand-built by a test or
// attacker). VXLAN frames are decapsulated one level, with the VNI
// recorded on the returned packet. Checksums are verified.
func Parse(f []byte) (Packet, error) {
	p, err := parsePlain(f)
	if err != nil {
		return Packet{}, err
	}
	if p.Tuple.Proto == ProtoUDP && p.Tuple.DstPort == VXLANPort {
		if len(p.Payload) < VXLANHeaderLen {
			return Packet{}, ErrTruncated
		}
		vni := binary.BigEndian.Uint32(p.Payload[4:]) >> 8
		inner, err := parsePlain(p.Payload[VXLANHeaderLen:])
		if err != nil {
			return Packet{}, fmt.Errorf("pkt: inner frame: %w", err)
		}
		inner.VNI = vni
		return inner, nil
	}
	return p, nil
}

func parsePlain(f []byte) (Packet, error) {
	var p Packet
	if len(f) < EthHeaderLen+IPv4HeaderLen {
		return p, ErrTruncated
	}
	copy(p.DstMAC[:], f[0:6])
	copy(p.SrcMAC[:], f[6:12])
	if binary.BigEndian.Uint16(f[12:]) != EtherTypeIPv4 {
		return p, ErrNotIPv4
	}
	ip := f[EthHeaderLen:]
	if ip[0]>>4 != 4 {
		return p, ErrNotIPv4
	}
	ihl := int(ip[0]&0xF) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return p, ErrTruncated
	}
	if Checksum(ip[:ihl]) != 0 {
		return p, fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	if totalLen < ihl || len(ip) < totalLen {
		return p, ErrTruncated
	}
	p.TTL = ip[8]
	p.Tuple.Proto = ip[9]
	p.Tuple.SrcIP = binary.BigEndian.Uint32(ip[12:])
	p.Tuple.DstIP = binary.BigEndian.Uint32(ip[16:])
	l4 := ip[ihl:totalLen]
	switch p.Tuple.Proto {
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return p, ErrTruncated
		}
		doff := int(l4[12]>>4) * 4
		if doff < TCPHeaderLen || len(l4) < doff {
			return p, ErrTruncated
		}
		if finish(pseudoHeaderSum(p.Tuple.SrcIP, p.Tuple.DstIP, ProtoTCP, len(l4)), l4) != 0 {
			return p, fmt.Errorf("%w: TCP", ErrBadChecksum)
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:])
		p.Payload = l4[doff:]
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return p, ErrTruncated
		}
		if ck := binary.BigEndian.Uint16(l4[6:]); ck != 0 {
			if finish(pseudoHeaderSum(p.Tuple.SrcIP, p.Tuple.DstIP, ProtoUDP, len(l4)), l4) != 0 {
				return p, fmt.Errorf("%w: UDP", ErrBadChecksum)
			}
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:])
		p.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:])
		p.Payload = l4[UDPHeaderLen:]
	default:
		return p, ErrBadProto
	}
	return p, nil
}

// appendVXLAN appends the inner Ethernet frame wrapped in
// Ethernet/IPv4/UDP/VXLAN to dst.
func appendVXLAN(dst []byte, vni uint32, inner []byte, srcMAC, dstMAC MAC, srcIP, dstIP uint32) []byte {
	outer := Packet{
		SrcMAC: srcMAC,
		DstMAC: dstMAC,
		Tuple: FiveTuple{
			SrcIP: srcIP, DstIP: dstIP,
			// Source port derived from inner frame hash for ECMP spread,
			// as RFC 7348 recommends.
			SrcPort: 49152 + uint16(fnv32(inner)%16384),
			DstPort: VXLANPort,
			Proto:   ProtoUDP,
		},
		Payload: make([]byte, VXLANHeaderLen+len(inner)),
	}
	outer.Payload[0] = 0x08 // flags: valid VNI
	binary.BigEndian.PutUint32(outer.Payload[4:], vni<<8)
	copy(outer.Payload[VXLANHeaderLen:], inner)
	return appendPlain(dst, &outer)
}

func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}
