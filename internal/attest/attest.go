// Package attest implements S-NIC's remote-attestation machinery
// (§4.7 and Appendix A):
//
//   - At manufacturing time a NIC receives an endorsement key pair (EK)
//     whose public half is certified by the hardware vendor.
//   - After each boot the NIC generates an attestation key pair (AK) and
//     signs AK_pub with EK_priv.
//   - nf_launch accumulates a SHA-256 hash of everything that defines the
//     launched function (code/data pages, core mask, switching rules,
//     accelerator bindings).
//   - nf_attest signs (launch hash ‖ DH parameters ‖ nonce) with AK_priv;
//     the verifier checks the chain vendor→EK→AK→quote, then completes a
//     classic Diffie–Hellman exchange (RFC 3526 group 14) yielding a
//     shared key known only to the function and the verifier.
//
// Keys are ECDSA P-256 (the hardware would use whatever its crypto block
// provides; the protocol is agnostic). Everything uses only the standard
// library. The DH contributions g^x use a fixed-base comb (comb.go) whose
// ≈256 KB table of powers of g is built once per process, on the first
// quote or verifier exchange.
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// Vendor is the NIC manufacturer's certificate authority.
type Vendor struct {
	Name string
	priv *ecdsa.PrivateKey
}

// NewVendor creates a vendor CA. rng may be nil (crypto/rand is used);
// tests pass a deterministic reader.
func NewVendor(name string, rng io.Reader) (*Vendor, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return nil, err
	}
	return &Vendor{Name: name, priv: k}, nil
}

// PublicKey returns the vendor's root public key (distributed to
// verifiers out of band).
func (v *Vendor) PublicKey() *ecdsa.PublicKey { return &v.priv.PublicKey }

// EndorsementCert binds an EK public key to a device serial, signed by
// the vendor.
type EndorsementCert struct {
	Serial string
	EKPub  []byte // marshaled point
	Sig    []byte
}

// Endorse issues an endorsement certificate for a device EK.
func (v *Vendor) Endorse(serial string, ekPub *ecdsa.PublicKey) (EndorsementCert, error) {
	pub := elliptic.Marshal(elliptic.P256(), ekPub.X, ekPub.Y)
	digest := certDigest(serial, pub)
	sig, err := ecdsa.SignASN1(rand.Reader, v.priv, digest)
	if err != nil {
		return EndorsementCert{}, err
	}
	return EndorsementCert{Serial: serial, EKPub: pub, Sig: sig}, nil
}

func certDigest(serial string, pub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("snic-endorsement-v1"))
	h.Write([]byte(serial))
	h.Write(pub)
	return h.Sum(nil)
}

// Device is the trusted hardware's key state: EK burned in at
// manufacturing, AK regenerated per boot.
type Device struct {
	Serial string
	ekPriv *ecdsa.PrivateKey
	ekCert EndorsementCert
	akPriv *ecdsa.PrivateKey
	akSig  []byte // AK_pub signed by EK_priv
}

// NewDevice manufactures a device under the vendor and performs its first
// boot (generating an AK).
func NewDevice(v *Vendor, serial string) (*Device, error) {
	ek, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	cert, err := v.Endorse(serial, &ek.PublicKey)
	if err != nil {
		return nil, err
	}
	d := &Device{Serial: serial, ekPriv: ek, ekCert: cert}
	if err := d.Reboot(); err != nil {
		return nil, err
	}
	return d, nil
}

// Reboot regenerates the attestation key, as the paper specifies happens
// after every NIC reset.
func (d *Device) Reboot() error {
	ak, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return err
	}
	akPub := elliptic.Marshal(elliptic.P256(), ak.PublicKey.X, ak.PublicKey.Y)
	sig, err := ecdsa.SignASN1(rand.Reader, d.ekPriv, akDigest(akPub))
	if err != nil {
		return err
	}
	d.akPriv = ak
	d.akSig = sig
	return nil
}

func akDigest(akPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("snic-ak-v1"))
	h.Write(akPub)
	return h.Sum(nil)
}

// LaunchHash is the cumulative SHA-256 nf_launch builds over function
// state (§4.6).
type LaunchHash struct {
	h [32]byte
	n int
}

// Add folds a labeled component (code pages, rules, masks) into the hash.
func (l *LaunchHash) Add(label string, data []byte) {
	h := sha256.New()
	h.Write(l.h[:])
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(len(label)))
	h.Write(lb[:])
	h.Write([]byte(label))
	h.Write(data)
	copy(l.h[:], h.Sum(nil))
	l.n++
}

// Sum returns the current cumulative hash.
func (l *LaunchHash) Sum() [32]byte { return l.h }

// Components returns how many components have been folded in.
func (l *LaunchHash) Components() int { return l.n }

// Group14P is the RFC 3526 2048-bit MODP prime; G is its generator.
var (
	Group14P, _ = new(big.Int).SetString(
		"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"+
			"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"+
			"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"+
			"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"+
			"98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"+
			"9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"+
			"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"+
			"3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF", 16)
	Group14G = big.NewInt(2)
)

// Quote is the four-part message of Appendix A: the DH contribution and
// launch hash, the AK signature over them, the EK-signed AK, and the
// vendor-signed EK certificate.
type Quote struct {
	LaunchHash [32]byte
	G, P       *big.Int
	Nonce      []byte
	DHPub      *big.Int // g^x mod p
	QuoteSig   []byte   // AK_priv over (hash ‖ g ‖ p ‖ nonce ‖ g^x)
	AKPub      []byte
	AKSig      []byte // EK_priv over AK_pub
	EKCert     EndorsementCert
}

func quoteDigest(hash [32]byte, g, p *big.Int, nonce []byte, dhPub *big.Int) []byte {
	h := sha256.New()
	h.Write([]byte("snic-quote-v1"))
	h.Write(hash[:])
	h.Write(g.Bytes())
	h.Write(p.Bytes())
	h.Write(nonce)
	h.Write(dhPub.Bytes())
	return h.Sum(nil)
}

// Attest implements nf_attest: given the launch hash of a running
// function and a verifier nonce, generate the device's DH contribution
// and sign the quote. It returns the quote plus the device-side DH secret
// x (held in hardware-private registers; callers use it with
// CompleteExchange).
func (d *Device) Attest(launch [32]byte, nonce []byte) (Quote, *big.Int, error) {
	x, err := rand.Int(rand.Reader, Group14P)
	if err != nil {
		return Quote{}, nil, err
	}
	dhPub := groupExp(x)
	sig, err := ecdsa.SignASN1(rand.Reader, d.akPriv, quoteDigest(launch, Group14G, Group14P, nonce, dhPub))
	if err != nil {
		return Quote{}, nil, err
	}
	akPub := elliptic.Marshal(elliptic.P256(), d.akPriv.PublicKey.X, d.akPriv.PublicKey.Y)
	return Quote{
		LaunchHash: launch,
		G:          Group14G, P: Group14P,
		Nonce:    append([]byte(nil), nonce...),
		DHPub:    dhPub,
		QuoteSig: sig,
		AKPub:    akPub,
		AKSig:    append([]byte(nil), d.akSig...),
		EKCert:   d.ekCert,
	}, x, nil
}

// Errors returned by Verify.
var (
	ErrBadVendorSig = fmt.Errorf("attest: EK certificate not signed by vendor")
	ErrBadAKSig     = fmt.Errorf("attest: AK not signed by endorsed EK")
	ErrBadQuoteSig  = fmt.Errorf("attest: quote signature invalid")
	ErrWrongNonce   = fmt.Errorf("attest: nonce mismatch (replay?)")
	ErrWrongHash    = fmt.Errorf("attest: launch hash does not match expected function")
	ErrBadGroup     = fmt.Errorf("attest: unexpected DH group")
)

// Verify checks the full chain of a quote against the vendor root, the
// expected launch hash, and the verifier's nonce.
func Verify(vendorPub *ecdsa.PublicKey, q Quote, expectedHash [32]byte, nonce []byte) error {
	// 1. Vendor signed the EK.
	if !ecdsa.VerifyASN1(vendorPub, certDigest(q.EKCert.Serial, q.EKCert.EKPub), q.EKCert.Sig) {
		return ErrBadVendorSig
	}
	ekX, ekY := elliptic.Unmarshal(elliptic.P256(), q.EKCert.EKPub)
	if ekX == nil {
		return ErrBadVendorSig
	}
	ekPub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: ekX, Y: ekY}
	// 2. EK signed the AK.
	if !ecdsa.VerifyASN1(ekPub, akDigest(q.AKPub), q.AKSig) {
		return ErrBadAKSig
	}
	akX, akY := elliptic.Unmarshal(elliptic.P256(), q.AKPub)
	if akX == nil {
		return ErrBadAKSig
	}
	akPub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: akX, Y: akY}
	// 3. AK signed the quote.
	if q.G.Cmp(Group14G) != 0 || q.P.Cmp(Group14P) != 0 {
		return ErrBadGroup
	}
	if !ecdsa.VerifyASN1(akPub, quoteDigest(q.LaunchHash, q.G, q.P, q.Nonce, q.DHPub), q.QuoteSig) {
		return ErrBadQuoteSig
	}
	// 4. Freshness and identity.
	if len(nonce) == 0 || len(q.Nonce) != len(nonce) || !equalBytes(q.Nonce, nonce) {
		return ErrWrongNonce
	}
	if q.LaunchHash != expectedHash {
		return ErrWrongHash
	}
	return nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

// VerifierExchange is the verifier's half of the DH exchange: given a
// verified quote it produces g^y and the shared key.
func VerifierExchange(q Quote) (dhPub *big.Int, shared [32]byte, err error) {
	y, err := rand.Int(rand.Reader, Group14P)
	if err != nil {
		return nil, shared, err
	}
	pub := groupExp(y)
	s := new(big.Int).Exp(q.DHPub, y, Group14P)
	return pub, sha256.Sum256(s.Bytes()), nil
}

// CompleteExchange derives the function side's shared key from the
// verifier's g^y and the device secret x.
func CompleteExchange(verifierPub *big.Int, x *big.Int) [32]byte {
	s := new(big.Int).Exp(verifierPub, x, Group14P)
	return sha256.Sum256(s.Bytes())
}
