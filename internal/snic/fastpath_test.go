package snic

import (
	"bytes"
	"testing"

	"snic/internal/attest"
	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/tlb"
)

// TestTeardownZeroPagesIsFree pins the 0-cost edge case: tearing down
// an NF whose pages were already released reports ScrubMS of exactly
// zero (0 bytes / 6.6 GB/s), so TotalMS is the allowlist cost alone —
// by assertion, not by trusting float division to behave.
func TestTeardownZeroPagesIsFree(t *testing.T) {
	d := newDevice(t)
	rep, err := d.Launch(basicSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Release the reservation out from under the NF (the experiment
	// harness's raw path), leaving zero mapped pages to scrub.
	if got := d.Memory().ReleaseAll(rep.ID); got == 0 {
		t.Fatal("expected a nonzero reservation to release")
	}
	tr, err := d.Teardown(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ScrubMS != 0 {
		t.Errorf("ScrubMS = %v, want exactly 0 for zero mapped pages", tr.ScrubMS)
	}
	if tr.TotalMS() != tr.AllowlistMS {
		t.Errorf("TotalMS = %v, want AllowlistMS %v alone", tr.TotalMS(), tr.AllowlistMS)
	}
}

// TestDefaultPathReportsUnchanged pins the bit-identity contract: a
// device with the zero-value FastPaths must produce exactly the
// paper-calibrated reports, hit no pool, and scrub serially.
func TestDefaultPathReportsUnchanged(t *testing.T) {
	d := newDevice(t)
	spec := basicSpec()
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	rates := DefaultRates()
	if want := float64(spec.MemBytes) / rates.DigestBytesPerSec * 1e3; rep.DigestMS != want {
		t.Errorf("DigestMS = %v, want %v", rep.DigestMS, want)
	}
	if rep.PoolHit {
		t.Error("default path reported a pool hit")
	}
	tr, err := d.Teardown(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	scrubbed := mem.AlignUp(spec.MemBytes, d.Memory().FrameSize())
	if want := float64(scrubbed) / rates.ScrubBytesPerSec * 1e3; tr.ScrubMS != want {
		t.Errorf("ScrubMS = %v, want serial %v", tr.ScrubMS, want)
	}
	if n := d.Memory().PoolFrames(); n != 0 {
		t.Errorf("default path parked %d frames in the pool", n)
	}
}

// TestWarmPoolIndistinguishableFromFresh is the arena invariant: after
// a teardown parks frames, every pooled frame must read back as zero
// through the raw port — a pool-hit launch gets memory bitwise
// identical to a fresh allocation.
func TestWarmPoolIndistinguishableFromFresh(t *testing.T) {
	d := newDevice(t)
	d.SetFastPaths(FastPaths{WarmPool: true})
	spec := basicSpec()
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the whole reservation so a scrub failure cannot hide
	// behind never-backed frames.
	v := d.NF(rep.ID)
	junk := bytes.Repeat([]byte{0xAB}, int(spec.MemBytes))
	if err := d.NFWrite(rep.ID, 0, junk); err != nil {
		t.Fatal(err)
	}
	region := v.Mem
	if _, err := d.Teardown(rep.ID); err != nil {
		t.Fatal(err)
	}
	pm := d.Memory()
	if pm.PoolFrames() == 0 {
		t.Fatal("teardown parked nothing in the warm arena")
	}
	fs := pm.FrameSize()
	buf := make([]byte, fs)
	zero := make([]byte, fs)
	for f := uint64(region.Start) / fs; f < uint64(region.End(fs))/fs; f++ {
		if pm.FrameOwner(f) != mem.Pooled {
			continue
		}
		if err := pm.Read(mem.Addr(f*fs), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, zero) {
			t.Fatalf("pooled frame %d is not scrubbed", f)
		}
	}
}

// TestPoolHitMatchesColdLaunch is the property test behind the warm
// pool: across randomized specs, a launch served from the arena yields
// an NF whose launch hash AND full memory contents are byte-identical
// to the same launch on a never-pooled device. The fast path may only
// change latency accounting, never function state.
func TestPoolHitMatchesColdLaunch(t *testing.T) {
	rng := sim.NewRand(0xC0FFEE)
	vend, err := attest.NewVendor("TestVendor", nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		imgLen := 1 + rng.Intn(4096)
		img := make([]byte, imgLen)
		rng.Bytes(img)
		spec := LaunchSpec{
			CoreMask: 0b01,
			Image:    img,
			MemBytes: uint64(1+rng.Intn(8)) << 18,
			DMACore:  -1,
		}
		if spec.MemBytes < uint64(imgLen) {
			spec.MemBytes = uint64(imgLen)
		}

		cold, err := New(Config{Cores: 8, MemBytes: 64 << 20}, vend)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := New(Config{Cores: 8, MemBytes: 64 << 20}, vend)
		if err != nil {
			t.Fatal(err)
		}
		warm.SetFastPaths(FastPaths{WarmPool: true, ParallelScrub: true})
		// Prime the arena: launch and tear down once so the next
		// launch is served from parked frames.
		pre, err := warm.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Teardown(pre.ID); err != nil {
			t.Fatal(err)
		}

		coldRep, err := cold.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		warmRep, err := warm.Launch(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !warmRep.PoolHit {
			t.Fatalf("trial %d: primed launch missed the pool", trial)
		}
		cv, wv := cold.NF(coldRep.ID), warm.NF(warmRep.ID)
		if cv.Hash != wv.Hash {
			t.Fatalf("trial %d: launch hash diverged between cold and pool-hit launch", trial)
		}
		cbuf := make([]byte, spec.MemBytes)
		wbuf := make([]byte, spec.MemBytes)
		if err := cold.NFRead(coldRep.ID, tlb.VAddr(0), cbuf); err != nil {
			t.Fatal(err)
		}
		if err := warm.NFRead(warmRep.ID, tlb.VAddr(0), wbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cbuf, wbuf) {
			t.Fatalf("trial %d: NF memory diverged between cold and pool-hit launch", trial)
		}
		if warmRep.DigestMS > coldRep.DigestMS {
			t.Fatalf("trial %d: pool hit digested more than cold (%v > %v)",
				trial, warmRep.DigestMS, coldRep.DigestMS)
		}
	}
}

// TestParallelScrubScalesWithIdleCores checks the striping model: with
// every other core idle, the scrub rate scales by the idle count; with
// the device fully booked it stays serial.
func TestParallelScrubScalesWithIdleCores(t *testing.T) {
	d := newDevice(t) // 8 cores
	d.SetFastPaths(FastPaths{ParallelScrub: true})
	spec := basicSpec() // two cores
	rep, err := d.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Teardown(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	rates := DefaultRates()
	scrubbed := mem.AlignUp(spec.MemBytes, d.Memory().FrameSize())
	serial := float64(scrubbed) / rates.ScrubBytesPerSec * 1e3
	if want := serial / 8; tr.ScrubMS != want {
		t.Errorf("ScrubMS = %v, want %v (8-way stripe: all cores idle post-teardown)", tr.ScrubMS, want)
	}
}

// TestBatchAttestRoundTrip runs the batched quote end to end on the
// device: N launches, one AttestNFBatch, and a per-function VerifyBatch
// against the vendor root — plus the negative cases (foreign hash,
// truncated batch).
func TestBatchAttestRoundTrip(t *testing.T) {
	vend, err := attest.NewVendor("TestVendor", nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Cores: 8, MemBytes: 64 << 20}, vend)
	if err != nil {
		t.Fatal(err)
	}
	var ids []ID
	for i := 0; i < 5; i++ {
		rep, err := d.Launch(LaunchSpec{
			CoreMask:   1 << uint(i),
			Image:      []byte{byte(i), 1, 2, 3},
			MemBytes:   1 << 18,
			RXBufBytes: 32 << 10,
			TXBufBytes: 32 << 10,
			DMACore:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rep.ID)
	}
	nonce := []byte("batch-nonce")
	q, proofs, x, totalMS, err := d.AttestNFBatch(ids, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if x == nil || totalMS <= 0 {
		t.Fatalf("bad batch outputs: x=%v totalMS=%v", x, totalMS)
	}
	rates := DefaultRates()
	if want := rates.AttestSHASec*1e3*5 + rates.RSASignSec*1e3; totalMS != want {
		t.Errorf("batch latency = %v, want one signature amortized: %v", totalMS, want)
	}
	for i, id := range ids {
		if err := attest.VerifyBatch(vend.PublicKey(), q, proofs[i], d.NF(id).Hash, nonce); err != nil {
			t.Errorf("member %d failed verification: %v", i, err)
		}
	}
	// A hash outside the batch must not verify under any proof.
	var evil [32]byte
	evil[0] = 0xEE
	if err := attest.VerifyBatch(vend.PublicKey(), q, proofs[0], evil, nonce); err == nil {
		t.Error("foreign hash verified against the batch")
	}
	// A member's proof must not vouch for a different member.
	swapped := proofs[1]
	swapped.LaunchHash = d.NF(ids[0]).Hash
	if err := attest.VerifyBatch(vend.PublicKey(), q, swapped, d.NF(ids[0]).Hash, nonce); err == nil {
		t.Error("member 0's hash verified under member 1's path")
	}
	// Wrong nonce is a replay.
	if err := attest.VerifyBatch(vend.PublicKey(), q, proofs[2], d.NF(ids[2]).Hash, []byte("other")); err != attest.ErrWrongNonce {
		t.Errorf("wrong nonce: got %v, want ErrWrongNonce", err)
	}
}
