package attest

import (
	"bytes"
	"errors"
	"testing"
)

func testDevice(t testing.TB) (*Vendor, *Device) {
	t.Helper()
	v, err := NewVendor("SNIC Vendor Inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(v, "SN-0001")
	if err != nil {
		t.Fatal(err)
	}
	return v, d
}

func launchHashFor(code string) [32]byte {
	var lh LaunchHash
	lh.Add("code", []byte(code))
	lh.Add("rules", []byte("dstport=80"))
	return lh.Sum()
}

func TestFullAttestationFlow(t *testing.T) {
	v, d := testDevice(t)
	hash := launchHashFor("nf binary v1")
	nonce := []byte("verifier-nonce-123")

	q, x, err := d.Attest(hash, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(v.PublicKey(), q, hash, nonce); err != nil {
		t.Fatal(err)
	}
	verifierPub, verifierKey, err := VerifierExchange(q)
	if err != nil {
		t.Fatal(err)
	}
	deviceKey := CompleteExchange(verifierPub, x)
	if deviceKey != verifierKey {
		t.Fatal("DH shared keys disagree")
	}
}

func TestVerifyRejectsWrongHash(t *testing.T) {
	v, d := testDevice(t)
	nonce := []byte("n")
	q, _, _ := d.Attest(launchHashFor("genuine"), nonce)
	if err := Verify(v.PublicKey(), q, launchHashFor("tampered"), nonce); !errors.Is(err, ErrWrongHash) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	v, d := testDevice(t)
	h := launchHashFor("x")
	q, _, _ := d.Attest(h, []byte("nonce-A"))
	if err := Verify(v.PublicKey(), q, h, []byte("nonce-B")); !errors.Is(err, ErrWrongNonce) {
		t.Fatalf("err = %v", err)
	}
	if err := Verify(v.PublicKey(), q, h, nil); !errors.Is(err, ErrWrongNonce) {
		t.Fatalf("empty nonce: %v", err)
	}
}

func TestVerifyRejectsForeignVendor(t *testing.T) {
	_, d := testDevice(t)
	other, _ := NewVendor("Mallory Silicon", nil)
	h := launchHashFor("x")
	nonce := []byte("n")
	q, _, _ := d.Attest(h, nonce)
	if err := Verify(other.PublicKey(), q, h, nonce); !errors.Is(err, ErrBadVendorSig) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsTamperedQuote(t *testing.T) {
	v, d := testDevice(t)
	h := launchHashFor("x")
	nonce := []byte("n")
	q, _, _ := d.Attest(h, nonce)
	// An attacker substitutes their own DH contribution (MITM attempt).
	q.DHPub.Add(q.DHPub, Group14G)
	if err := Verify(v.PublicKey(), q, h, nonce); !errors.Is(err, ErrBadQuoteSig) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsSubstitutedAK(t *testing.T) {
	v, d := testDevice(t)
	_, d2 := testDevice(t)
	h := launchHashFor("x")
	nonce := []byte("n")
	q, _, _ := d.Attest(h, nonce)
	q2, _, _ := d2.Attest(h, nonce)
	// Splice another device's AK (signed by a different EK) into the quote.
	q.AKPub, q.AKSig = q2.AKPub, q2.AKSig
	if err := Verify(v.PublicKey(), q, h, nonce); err == nil {
		t.Fatal("spliced AK accepted")
	}
}

func TestRebootRotatesAK(t *testing.T) {
	v, d := testDevice(t)
	h := launchHashFor("x")
	q1, _, _ := d.Attest(h, []byte("n1"))
	if err := d.Reboot(); err != nil {
		t.Fatal(err)
	}
	q2, _, _ := d.Attest(h, []byte("n2"))
	if bytes.Equal(q1.AKPub, q2.AKPub) {
		t.Fatal("AK not rotated across reboot")
	}
	// Both attest chains remain valid under the same vendor root.
	if err := Verify(v.PublicKey(), q2, h, []byte("n2")); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchHashOrderAndContentSensitivity(t *testing.T) {
	var a, b, c LaunchHash
	a.Add("code", []byte("x"))
	a.Add("rules", []byte("y"))
	b.Add("rules", []byte("y"))
	b.Add("code", []byte("x"))
	c.Add("code", []byte("x"))
	c.Add("rules", []byte("z"))
	if a.Sum() == b.Sum() {
		t.Fatal("hash insensitive to component order")
	}
	if a.Sum() == c.Sum() {
		t.Fatal("hash insensitive to content")
	}
	if a.Components() != 2 {
		t.Fatalf("components = %d", a.Components())
	}
}

func TestChannelRoundTrip(t *testing.T) {
	key := [32]byte{1, 2, 3}
	a, err := NewChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewChannel(key)
	for i := 0; i < 10; i++ {
		msg := []byte("tls keys for flow 42")
		ct := a.Seal(msg)
		pt, err := b.Open(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestChannelRejectsReplay(t *testing.T) {
	key := [32]byte{9}
	a, _ := NewChannel(key)
	b, _ := NewChannel(key)
	ct := a.Seal([]byte("m0"))
	if _, err := b.Open(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(ct); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
}

func TestChannelRejectsTampering(t *testing.T) {
	key := [32]byte{7}
	a, _ := NewChannel(key)
	b, _ := NewChannel(key)
	ct := a.Seal([]byte("payload"))
	ct[len(ct)-1] ^= 1
	if _, err := b.Open(ct); !errors.Is(err, ErrForged) {
		t.Fatalf("tamper: %v", err)
	}
	if _, err := b.Open([]byte{1, 2}); !errors.Is(err, ErrForged) {
		t.Fatalf("short datagram: %v", err)
	}
}

func TestChannelRejectsWrongKey(t *testing.T) {
	a, _ := NewChannel([32]byte{1})
	b, _ := NewChannel([32]byte{2})
	if _, err := b.Open(a.Seal([]byte("m"))); !errors.Is(err, ErrForged) {
		t.Fatal("wrong-key datagram accepted")
	}
}
