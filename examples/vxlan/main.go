// VXLAN: two tenants own overlapping virtual L2 networks (even identical
// inner 5-tuples); the S-NIC steers frames to each tenant's NF by VXLAN
// Network Identifier (§4.4), so every function acts as an endpoint on its
// tenant's private Layer-2 topology. Built and driven entirely through
// the device.NIC interface.
//
//	go run ./examples/vxlan
package main

import (
	"fmt"
	"log"

	"snic/internal/device"
	"snic/internal/pkt"
	"snic/internal/pktio"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dev, err := device.New(device.Spec{Model: "snic", Cores: 4, MemBytes: 64 << 20})
	if err != nil {
		return err
	}

	// Tenant green owns VNI 1001, tenant blue owns VNI 2002.
	launch := func(name string, mask uint64, vni uint32) (device.FuncID, error) {
		return dev.Launch(device.FuncSpec{
			Name:     name,
			Image:    []byte(name),
			MemBytes: 4 << 20,
			CoreMask: mask,
			Rules:    []pktio.MatchSpec{{VNI: vni}},
		})
	}
	green, err := launch("green-monitor", 0b01, 1001)
	if err != nil {
		return err
	}
	blue, err := launch("blue-monitor", 0b10, 2002)
	if err != nil {
		return err
	}
	fmt.Printf("green NF id=%d (VNI 1001), blue NF id=%d (VNI 2002)\n", green, blue)

	// Both tenants use the SAME inner 5-tuple — private address spaces
	// overlap, as they do in real multi-tenant datacenters.
	inner := pkt.FiveTuple{
		SrcIP: 0x0A000001, DstIP: 0x0A000002,
		SrcPort: 1234, DstPort: 80, Proto: pkt.ProtoTCP,
	}
	mk := func(vni uint32, payload string) []byte {
		p := pkt.Packet{Tuple: inner, Payload: []byte(payload), VNI: vni}
		return p.Marshal()
	}

	deliveries := []struct {
		frame []byte
		want  device.FuncID
		label string
	}{
		{mk(1001, "green secret"), green, "VNI 1001"},
		{mk(2002, "blue secret"), blue, "VNI 2002"},
		{mk(3003, "stray tenant"), 0, "VNI 3003 (no NF)"},
	}
	for _, d := range deliveries {
		owner, err := dev.Inject(d.frame)
		if err != nil {
			return err
		}
		ok := owner == d.want
		fmt.Printf("%-18s -> owner %d (expected %d) %v\n", d.label, owner, d.want, ok)
		if !ok {
			return fmt.Errorf("misrouted %s", d.label)
		}
	}

	// Each NF decapsulates its own frame and sees its tenant's payload —
	// and only its own.
	for _, tn := range []struct {
		id   device.FuncID
		want string
	}{{green, "green secret"}, {blue, "blue secret"}} {
		raw, err := dev.Retrieve(tn.id, nil)
		if err != nil {
			return err
		}
		inner, err := pkt.Parse(raw) // decapsulates, exposing the VNI
		if err != nil {
			return err
		}
		if string(inner.Payload) != tn.want {
			return fmt.Errorf("NF %d saw %q", tn.id, inner.Payload)
		}
		fmt.Printf("NF %d decapsulated VNI %d payload %q\n", tn.id, inner.VNI, inner.Payload)
	}
	fmt.Println("tenant L2 overlays fully separated by VNI steering")
	return nil
}
