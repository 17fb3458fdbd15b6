// Multitenant: four distrusting tenants share one S-NIC. The example
// shows (1) per-tenant traffic steering into private packet pipelines,
// (2) a hostile tenant failing to read or corrupt a victim's state, and
// (3) teardown leaving no residue for the next tenant.
//
// Everything goes through the device.NIC interface — swap the model in
// the Spec for any commodity baseline to watch the same attacks land.
//
//	go run ./examples/multitenant
package main

import (
	"bytes"
	"fmt"
	"log"

	"snic/internal/attacks"
	"snic/internal/device"
	"snic/internal/pkt"
	"snic/internal/pktio"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func frameFor(port uint16, payload string) []byte {
	return (&pkt.Packet{
		Tuple: pkt.FiveTuple{
			SrcIP: 0x0A000001, DstIP: 0x0A0000FE,
			SrcPort: 40000, DstPort: port, Proto: pkt.ProtoTCP,
		},
		Payload: []byte(payload),
	}).Marshal()
}

func run() error {
	dev, err := device.New(device.Spec{Model: "snic", Cores: 8, MemBytes: 128 << 20})
	if err != nil {
		return err
	}

	// Four tenants, one core + port range each.
	tenants := []struct {
		name string
		mask uint64
		port uint16
	}{
		{"tenant-A-nat", 0b0001, 8080},
		{"tenant-B-dpi", 0b0010, 8081},
		{"tenant-C-lb", 0b0100, 8082},
		{"tenant-D-mallory", 0b1000, 8083},
	}
	ids := make([]device.FuncID, len(tenants))
	for i, tn := range tenants {
		id, err := dev.Launch(device.FuncSpec{
			Name:     tn.name,
			Image:    []byte(tn.name + " image"),
			MemBytes: 4 << 20,
			CoreMask: tn.mask,
			Rules: []pktio.MatchSpec{{
				Proto: pkt.ProtoTCP, DstPortLo: tn.port, DstPortHi: tn.port,
			}},
		})
		if err != nil {
			return err
		}
		ids[i] = id
		fmt.Printf("launched %-18s id=%d coremask=%#06b\n", tn.name, id, tn.mask)
	}

	// Steering: each tenant only sees (and consumes) its own traffic.
	for i, tn := range tenants {
		frame := frameFor(tn.port, tn.name+" private payload")
		owner, err := dev.Inject(frame)
		if err != nil {
			return err
		}
		if owner != ids[i] {
			return fmt.Errorf("misdelivery: %s got owner %d", tn.name, owner)
		}
		got, err := dev.Retrieve(owner, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, frame) {
			return fmt.Errorf("%s received a mangled frame", tn.name)
		}
	}
	fmt.Println("steering: each tenant received exactly its own flows")

	// Tenant D (mallory) tries the §3.3 attacks against tenant A.
	secret := []byte("tenant-A NAT translation table")
	theft, err := attacks.Theft(dev, ids[0], ids[3], secret)
	if err != nil {
		return err
	}
	fmt.Println(theft)
	corrupt, err := attacks.Corruption(dev, ids[0], ids[3], frameFor(8080, "pre-translation payload"))
	if err != nil {
		return err
	}
	fmt.Println(corrupt)
	if theft.Succeeded || corrupt.Succeeded {
		return fmt.Errorf("isolation violated")
	}

	// Teardown tenant A; its memory must come back scrubbed before any
	// reuse. While the NF lives, the management path is denylisted; after
	// teardown the same read succeeds — and must see only zeros.
	region, ok := dev.Region(ids[0])
	if !ok {
		return fmt.Errorf("tenant A has no region")
	}
	if err := dev.Write(ids[0], 8192, secret); err != nil {
		return err
	}
	if err := dev.Teardown(ids[0]); err != nil {
		return err
	}
	residue := make([]byte, len(secret))
	if err := dev.MgmtRead(region.Start+8192, residue); err != nil {
		return err
	}
	if !bytes.Equal(residue, make([]byte, len(secret))) {
		return fmt.Errorf("teardown left residue")
	}
	fmt.Println("teardown: tenant-A memory scrubbed to zero before reuse")

	// Tenant E immediately reuses the freed core and memory.
	id, err := dev.Launch(device.FuncSpec{
		Name: "tenant-E", Image: []byte("tenant-E image"), MemBytes: 4 << 20, CoreMask: 0b0001,
	})
	if err != nil {
		return err
	}
	probe := make([]byte, len(secret))
	if err := dev.Read(id, 8192, probe); err == nil {
		if bytes.Equal(probe, secret) {
			return fmt.Errorf("tenant E read tenant A's secret")
		}
	}
	fmt.Println("tenant-E launched on recycled core 0; sees only zeroed memory")
	return nil
}
