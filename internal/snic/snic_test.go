package snic

import (
	"bytes"
	"errors"
	"testing"

	"snic/internal/attest"
	"snic/internal/dma"
	"snic/internal/mem"
	"snic/internal/pkt"
	"snic/internal/pktio"
	"snic/internal/sim"
	"snic/internal/tlb"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	v, err := attest.NewVendor("TestVendor", nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Cores: 8, MemBytes: 64 << 20}, v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func basicSpec() LaunchSpec {
	return LaunchSpec{
		CoreMask: 0b0011,
		Image:    []byte("nf code and data"),
		MemBytes: 1 << 20,
		Rules:    []pktio.MatchSpec{{DstPortLo: 80, DstPortHi: 80}},
		DMACore:  -1,
	}
}

func TestLaunchBindsResources(t *testing.T) {
	d := newDevice(t)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := d.NF(rep.ID)
	if v == nil {
		t.Fatal("no virtual NIC")
	}
	if len(v.Cores) != 2 || d.FreeCores() != 6 {
		t.Fatalf("cores: %v free %d", v.Cores, d.FreeCores())
	}
	if !v.TLB.Locked() {
		t.Fatal("core TLB not locked")
	}
	if v.VPP == nil {
		t.Fatal("no VPP")
	}
	if v.Hash == ([32]byte{}) {
		t.Fatal("no launch hash")
	}
	// The image is readable through the NF's own TLB.
	buf := make([]byte, 16)
	if err := d.NFRead(rep.ID, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("nf code and data")) {
		t.Fatalf("image = %q", buf)
	}
}

func TestLaunchRejectsCoreConflicts(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Launch(basicSpec()); err != nil {
		t.Fatal(err)
	}
	spec := basicSpec()
	spec.CoreMask = 0b0110 // overlaps core 1
	if _, err := d.Launch(spec); err == nil {
		t.Fatal("core conflict accepted")
	}
	spec.CoreMask = 1 << 20 // nonexistent core
	if _, err := d.Launch(spec); err == nil {
		t.Fatal("nonexistent core accepted")
	}
	spec.CoreMask = 0
	if _, err := d.Launch(spec); err == nil {
		t.Fatal("empty mask accepted")
	}
}

func TestLaunchRollbackOnFailure(t *testing.T) {
	d := newDevice(t)
	spec := basicSpec()
	spec.DPIClusters = 100 // cannot be satisfied
	if _, err := d.Launch(spec); err == nil {
		t.Fatal("impossible accelerator demand accepted")
	}
	// Everything must have been rolled back.
	if d.FreeCores() != 8 {
		t.Fatal("cores leaked")
	}
	if d.Denylist().Len() != 0 {
		t.Fatal("denylist entries leaked")
	}
	if d.Memory().OwnedBytes(mem.FirstNF) != 0 {
		t.Fatal("memory leaked")
	}
	// A follow-up launch works and reuses the resources.
	if _, err := d.Launch(basicSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestManagementCoreDeniedNFMemory(t *testing.T) {
	d := newDevice(t)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := d.NF(rep.ID)
	// The NIC OS tries to map the NF's physical pages: dual-walk refuses.
	err = d.MgmtMap(0, v.Mem.Start, 128<<10)
	if !errors.Is(err, tlb.ErrDenied) {
		t.Fatalf("management map of NF memory: %v", err)
	}
	// Mapping free memory is fine.
	free, _ := d.Memory().AllocBytes(mem.NICOS, 128<<10)
	if err := d.MgmtMap(0, free.Start, 128<<10); err != nil {
		t.Fatal(err)
	}
	if err := d.MgmtWrite(0, []byte("os data")); err != nil {
		t.Fatal(err)
	}
}

func TestStaleManagementMappingRevoked(t *testing.T) {
	d := newDevice(t)
	// The OS maps a free region first...
	region, _ := d.Memory().AllocBytes(mem.NICOS, 256<<10)
	if err := d.MgmtMap(0, region.Start, 256<<10); err != nil {
		t.Fatal(err)
	}
	// ...then releases it and an NF launches over it.
	d.Memory().ReleaseAll(mem.NICOS)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	v := d.NF(rep.ID)
	if v.Mem.Start != region.Start {
		t.Skip("allocator did not reuse the region; nothing to test")
	}
	var b [8]byte
	if err := d.MgmtRead(0, b[:]); !errors.Is(err, tlb.ErrDenied) {
		t.Fatalf("stale mapping usable: %v", err)
	}
}

func TestNFCannotReachBeyondItsTLB(t *testing.T) {
	d := newDevice(t)
	repA, _ := d.Launch(basicSpec())
	specB := basicSpec()
	specB.CoreMask = 0b1100
	repB, err := d.Launch(specB)
	if err != nil {
		t.Fatal(err)
	}
	_ = repB
	// NF A's VA space covers only its 1 MB; everything else misses, so
	// there is no address NF A can use to reach NF B.
	var b [8]byte
	if err := d.NFRead(repA.ID, tlb.VAddr(2<<20), b[:]); !errors.Is(err, tlb.ErrMiss) {
		t.Fatalf("out-of-reservation read: %v", err)
	}
}

func TestTeardownScrubsAndReleases(t *testing.T) {
	d := newDevice(t)
	rep, _ := d.Launch(basicSpec())
	v := d.NF(rep.ID)
	secret := []byte("flow table secrets")
	if err := d.NFWrite(rep.ID, 4096, secret); err != nil {
		t.Fatal(err)
	}
	start := v.Mem.Start
	tr, err := d.Teardown(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ScrubMS <= 0 {
		t.Fatal("no scrub time")
	}
	if d.NF(rep.ID) != nil {
		t.Fatal("NF still registered")
	}
	if d.FreeCores() != 8 || d.Denylist().Len() != 0 {
		t.Fatal("resources not released")
	}
	// Raw DRAM shows zeroes where the secret was.
	got := make([]byte, len(secret))
	d.Memory().Read(start+4096, got)
	if !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatalf("teardown residue: %q", got)
	}
	// Teardown of a dead NF fails.
	if _, err := d.Teardown(rep.ID); err == nil {
		t.Fatal("double teardown accepted")
	}
}

func TestLaunchLatencyScalesWithMemory(t *testing.T) {
	d := newDevice(t)
	small := basicSpec()
	small.MemBytes = 1 << 20
	big := basicSpec()
	big.CoreMask = 0b1100
	big.MemBytes = 32 << 20
	rs, err := d.Launch(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := d.Launch(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.DigestMS <= rs.DigestMS*16 {
		t.Fatalf("digest latency not proportional: %v vs %v", rb.DigestMS, rs.DigestMS)
	}
	// Calibration sanity: 13.8 MB should digest in ~29.6 ms.
	r := DefaultRates()
	ms := 13.8 * 1e6 / r.DigestBytesPerSec * 1e3
	if ms < 25 || ms > 35 {
		t.Fatalf("digest calibration off: 13.8MB -> %.2fms", ms)
	}
}

func TestAttestEndToEnd(t *testing.T) {
	vend, _ := attest.NewVendor("V", nil)
	d, err := New(Config{Cores: 4, MemBytes: 16 << 20}, vend)
	if err != nil {
		t.Fatal(err)
	}
	spec := basicSpec()
	spec.CoreMask = 0b0001
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("fresh-nonce")
	q, x, latency, err := d.AttestNF(rep.ID, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if latency < 5 || latency > 7 {
		t.Fatalf("attest latency %.2fms, want ~5.6", latency)
	}
	if err := attest.Verify(vend.PublicKey(), q, d.NF(rep.ID).Hash, nonce); err != nil {
		t.Fatal(err)
	}
	pub, key, err := attest.VerifierExchange(q)
	if err != nil {
		t.Fatal(err)
	}
	if attest.CompleteExchange(pub, x) != key {
		t.Fatal("shared keys disagree")
	}
	// A verifier expecting different initial state rejects the quote:
	// this is how clients detect a NIC OS that mis-staged the image.
	wrong := d.NF(rep.ID).Hash
	wrong[0] ^= 1
	if err := attest.Verify(vend.PublicKey(), q, wrong, nonce); err == nil {
		t.Fatal("wrong state accepted")
	}
}

func TestPacketPathEndToEnd(t *testing.T) {
	d := newDevice(t)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	frame := (&pkt.Packet{
		Tuple: pkt.FiveTuple{
			SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: pkt.ProtoTCP,
		},
		Payload: []byte("to the NF"),
	}).Marshal()
	owner, err := d.Switch().Deliver(frame)
	if err != nil {
		t.Fatal(err)
	}
	if owner != rep.ID {
		t.Fatalf("delivered to %d", owner)
	}
	v := d.NF(rep.ID)
	desc, ok := v.VPP.Pop()
	if !ok {
		t.Fatal("no descriptor")
	}
	// The NF reads the frame through its own TLB.
	raw := make([]byte, desc.Len)
	if err := d.NFRead(rep.ID, desc.VA, raw); err != nil {
		t.Fatal(err)
	}
	got, err := pkt.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "to the NF" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestDMABinding(t *testing.T) {
	d := newDevice(t)
	spec := basicSpec()
	spec.DMACore = 0
	spec.DMAWindow = dma.NewHostRegion(64 << 10)
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := d.NF(rep.ID)
	if v.DMABank == nil || v.DMABank.Owner() != rep.ID {
		t.Fatal("DMA bank not bound")
	}
	// Move data NF -> host.
	d.NFWrite(rep.ID, 8192, []byte("results"))
	if err := v.DMABank.ToHost(d.Memory(), 8192, 7, 0); err != nil {
		t.Fatal(err)
	}
	if string(spec.DMAWindow.Bytes()[:7]) != "results" {
		t.Fatal("DMA to host failed")
	}
	// DMA core outside the mask is rejected.
	spec2 := basicSpec()
	spec2.CoreMask = 0b1100
	spec2.DMACore = 0 // not in mask
	spec2.DMAWindow = dma.NewHostRegion(1024)
	if _, err := d.Launch(spec2); err == nil {
		t.Fatal("DMA core outside mask accepted")
	}
}

func TestAcceleratorBindingThroughLaunch(t *testing.T) {
	d := newDevice(t)
	spec := basicSpec()
	spec.DPIClusters = 2
	spec.ZIPClusters = 1
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := d.NF(rep.ID)
	if len(v.DPI) != 2 || len(v.ZIP) != 1 {
		t.Fatalf("clusters: dpi=%d zip=%d", len(v.DPI), len(v.ZIP))
	}
	for _, c := range v.DPI {
		if c.Owner() != rep.ID || !c.TLB.Locked() {
			t.Fatal("DPI cluster not bound/locked")
		}
	}
	if _, err := d.Teardown(rep.ID); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchHashDependsOnEverything(t *testing.T) {
	d := newDevice(t)
	a, _ := d.Launch(basicSpec())
	specB := basicSpec()
	specB.CoreMask = 0b1100
	specB.Image = []byte("nf code and datX") // one byte differs
	b, _ := d.Launch(specB)
	if d.NF(a.ID).Hash == d.NF(b.ID).Hash {
		t.Fatal("different images hash equal")
	}
}

func TestLaunchRejectsOversizedRing(t *testing.T) {
	d := newDevice(t)
	spec := basicSpec()
	spec.MemBytes = 128 << 10
	spec.RingSlots = 1024
	spec.RingSlot = 2048 // 2 MB ring > 128 KB memory
	if _, err := d.Launch(spec); err == nil {
		t.Fatal("oversized ring accepted")
	}
}

func TestSendLocalChainsFunctions(t *testing.T) {
	d := newDevice(t)
	a, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	specB := basicSpec()
	specB.CoreMask = 0b1100
	b, err := d.Launch(specB)
	if err != nil {
		t.Fatal(err)
	}
	// NF A builds a frame in its own memory (beyond its ring) and chains
	// it to NF B over the localhost path.
	frame := (&pkt.Packet{
		Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: pkt.ProtoTCP},
		Payload: []byte("chained hop"),
	}).Marshal()
	if err := d.NFWrite(a.ID, tlb.VAddr(256<<10), frame); err != nil {
		t.Fatal(err)
	}
	if err := d.SendLocal(a.ID, b.ID, tlb.VAddr(256<<10), len(frame)); err != nil {
		t.Fatal(err)
	}
	desc, ok := d.NF(b.ID).VPP.Pop()
	if !ok {
		t.Fatal("no descriptor at receiver")
	}
	raw := make([]byte, desc.Len)
	if err := d.NFRead(b.ID, desc.VA, raw); err != nil {
		t.Fatal(err)
	}
	got, err := pkt.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "chained hop" {
		t.Fatalf("payload = %q", got.Payload)
	}
	// The sender cannot source a message from memory it does not map.
	span := d.NF(a.ID).TLB.TotalMapped()
	if err := d.SendLocal(a.ID, b.ID, tlb.VAddr(span), 64); err == nil {
		t.Fatal("out-of-mapping local send accepted")
	}
	// Unknown endpoints fail.
	if err := d.SendLocal(99, b.ID, 0, 8); err == nil {
		t.Fatal("unknown sender accepted")
	}
	if err := d.SendLocal(a.ID, 99, 0, 8); err == nil {
		t.Fatal("unknown receiver accepted")
	}
	if err := d.SendLocal(a.ID, b.ID, 0, 0); err == nil {
		t.Fatal("empty send accepted")
	}
}

// Fuzz-style lifecycle test: a random interleaving of launches and
// teardowns must never violate the resource invariants — no core owned
// twice, denylist exactly covering live NF frames, memory ownership
// consistent, and every live NF still able to read its own image.
func TestLifecycleChurnInvariants(t *testing.T) {
	v, _ := attest.NewVendor("V", nil)
	d, err := New(Config{Cores: 6, MemBytes: 48 << 20}, v)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(0xC0FFEE)
	live := map[ID]byte{} // id -> image tag
	var ids []ID
	for step := 0; step < 300; step++ {
		if rng.Intn(2) == 0 && len(live) < 4 {
			tag := byte(rng.Intn(256))
			mask := uint64(0)
			for b := 0; b < 6 && mask == 0; b++ {
				c := rng.Intn(6)
				if d.coreOwner[c] == mem.Free {
					mask = 1 << c
				}
			}
			if mask == 0 {
				continue
			}
			rep, err := d.Launch(LaunchSpec{
				CoreMask: mask,
				Image:    []byte{tag, tag, tag, tag},
				MemBytes: uint64(1+rng.Intn(4)) << 20,
				DMACore:  -1,
			})
			if err != nil {
				continue // resource exhaustion is fine; state must stay sane
			}
			live[rep.ID] = tag
			ids = append(ids, rep.ID)
		} else if len(ids) > 0 {
			id := ids[rng.Intn(len(ids))]
			if _, ok := live[id]; !ok {
				continue
			}
			if _, err := d.Teardown(id); err != nil {
				t.Fatalf("step %d: teardown(%d): %v", step, id, err)
			}
			delete(live, id)
		}
		// Invariants.
		owned := map[int]ID{}
		for c, o := range d.coreOwner {
			if o == mem.Free {
				continue
			}
			if _, ok := live[o]; !ok {
				t.Fatalf("step %d: core %d owned by dead NF %d", step, c, o)
			}
			owned[c] = o
		}
		for id, tag := range live {
			var img [4]byte
			if err := d.NFRead(id, 0, img[:]); err != nil {
				t.Fatalf("step %d: NF %d cannot read image: %v", step, id, err)
			}
			if img[0] != tag {
				t.Fatalf("step %d: NF %d image corrupted (%d != %d)", step, id, img[0], tag)
			}
			vn := d.NF(id)
			if !d.Denylist().Denied(vn.Mem.Start, 1) {
				t.Fatalf("step %d: NF %d memory not denylisted", step, id)
			}
		}
		if d.FreeCores()+len(owned) != 6 {
			t.Fatalf("step %d: core accounting broken", step)
		}
	}
}

// The §4.1 example provisioning: three cores, 40 MB of RAM, two
// cryptographic accelerators, and a compression accelerator.
func TestPaperExampleProvisioning(t *testing.T) {
	v, _ := attest.NewVendor("V", nil)
	d, err := New(Config{Cores: 8, MemBytes: 256 << 20}, v)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Launch(LaunchSpec{
		CoreMask:       0b0111,
		Image:          []byte("wan-optimizer"),
		MemBytes:       40 << 20,
		CryptoClusters: 2,
		ZIPClusters:    1,
		DMACore:        -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vn := d.NF(rep.ID)
	if len(vn.Cores) != 3 || len(vn.Crypto) != 2 || len(vn.ZIP) != 1 {
		t.Fatalf("provisioning: cores=%d crypto=%d zip=%d",
			len(vn.Cores), len(vn.Crypto), len(vn.ZIP))
	}
	if _, err := d.Teardown(rep.ID); err != nil {
		t.Fatal(err)
	}
}

func TestRebootTearsDownAndRotatesAK(t *testing.T) {
	vend, _ := attest.NewVendor("V", nil)
	d, err := New(Config{Cores: 4, MemBytes: 16 << 20}, vend)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	q1, _, _, err := d.AttestNF(rep.ID, []byte("n1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reboot(); err != nil {
		t.Fatal(err)
	}
	if d.LiveNFs() != 0 || d.FreeCores() != 4 {
		t.Fatal("reboot left residue")
	}
	// Relaunch; the new quote carries a different AK.
	rep2, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	q2, _, _, err := d.AttestNF(rep2.ID, []byte("n2"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(q1.AKPub, q2.AKPub) {
		t.Fatal("attestation key not rotated across reboot")
	}
	if err := attest.Verify(vend.PublicKey(), q2, d.NF(rep2.ID).Hash, []byte("n2")); err != nil {
		t.Fatal(err)
	}
}

// TestNFRecvIntoBuffer covers NFRecv's errors and its dst contract: a
// buffer with room is reused, the bytes are the delivered frame's.
func TestNFRecvIntoBuffer(t *testing.T) {
	d := newDevice(t)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NFRecv(99, nil); !errors.Is(err, ErrNoNF) {
		t.Fatalf("unknown NF: %v", err)
	}
	if _, err := d.NFRecv(rep.ID, nil); !errors.Is(err, ErrRxEmpty) {
		t.Fatalf("empty ring: %v", err)
	}
	buf := make([]byte, 0, 2048)
	for _, payload := range []string{"a longer first frame for the ring", "short"} {
		frame := (&pkt.Packet{
			Tuple:   pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80, Proto: pkt.ProtoTCP},
			Payload: []byte(payload),
		}).Marshal()
		if _, err := d.Switch().Deliver(frame); err != nil {
			t.Fatal(err)
		}
		got, err := d.NFRecv(rep.ID, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frame) || &got[:1][0] != &buf[:1][0] {
			t.Fatalf("NFRecv = %q (reused buffer: %v)", got, &got[:1][0] == &buf[:1][0])
		}
	}
}

// TestSendLocalReusesStaging sends frames of different lengths through
// the device's staging buffer: each receiver descriptor keeps its own
// bytes, and a steady-state hop allocates nothing.
func TestSendLocalReusesStaging(t *testing.T) {
	d := newDevice(t)
	a, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	specB := basicSpec()
	specB.CoreMask = 0b1100
	b, err := d.Launch(specB)
	if err != nil {
		t.Fatal(err)
	}
	src := tlb.VAddr(256 << 10)
	long, short := bytes.Repeat([]byte{0xAB}, 1500), []byte("hop")
	for _, msg := range [][]byte{long, short} {
		if err := d.NFWrite(a.ID, src, msg); err != nil {
			t.Fatal(err)
		}
		if err := d.SendLocal(a.ID, b.ID, src, len(msg)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range [][]byte{long, short} {
		got, err := d.NFRecv(b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("receiver got %d bytes, want %d", len(got), len(want))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.SendLocal(a.ID, b.ID, src, len(long)); err != nil {
			t.Fatal(err)
		}
		d.NF(b.ID).VPP.Pop()
	})
	if allocs != 0 {
		t.Fatalf("SendLocal allocates %.1f times per hop", allocs)
	}
}
