// Batched attestation: one crypto pass over N pending launches.
//
// Under serverless churn (λ-NIC-style workloads) nf_attest dominates the
// control path: every quote costs a fresh 2048-bit DH contribution and
// an AK signature. A batch quote amortizes both — the device builds a
// Merkle tree over the N launch hashes, draws one DH secret, and signs
// (root ‖ DH params ‖ nonce) once. Each function then carries a compact
// inclusion proof, and a verifier that trusts the batch root trusts
// every member. The single-NF Attest path above is untouched, so
// existing quotes stay bit-identical.
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
)

// BatchQuote is the batched analogue of Quote: the Merkle root of N
// launch hashes stands where the single launch hash stood, and the AK
// signature covers (root ‖ leaves ‖ g ‖ p ‖ nonce ‖ g^x).
type BatchQuote struct {
	Root    [32]byte
	Leaves  int
	G, P    *big.Int
	Nonce   []byte
	DHPub   *big.Int // g^x mod p, shared by the whole batch
	RootSig []byte   // AK_priv over the batch digest
	AKPub   []byte
	AKSig   []byte // EK_priv over AK_pub
	EKCert  EndorsementCert
}

// BatchProof is one function's membership proof: its leaf index and the
// sibling hashes from leaf to root.
type BatchProof struct {
	LaunchHash [32]byte
	Index      int
	Path       [][32]byte
}

// Domain-separated Merkle hashing: leaves and interior nodes use
// distinct prefixes so a leaf can never be reinterpreted as a node.
func merkleLeaf(h [32]byte) [32]byte {
	s := sha256.New()
	s.Write([]byte("snic-batch-leaf-v1"))
	s.Write(h[:])
	var out [32]byte
	copy(out[:], s.Sum(nil))
	return out
}

func merkleNode(l, r [32]byte) [32]byte {
	s := sha256.New()
	s.Write([]byte("snic-batch-node-v1"))
	s.Write(l[:])
	s.Write(r[:])
	var out [32]byte
	copy(out[:], s.Sum(nil))
	return out
}

// merkleTree builds the tree bottom-up and returns the root plus one
// sibling path per leaf. An odd tail node is paired with itself, the
// usual padding rule.
func merkleTree(hashes [][32]byte) ([32]byte, [][][32]byte) {
	n := len(hashes)
	paths := make([][][32]byte, n)
	level := make([][32]byte, n)
	for i, h := range hashes {
		level[i] = merkleLeaf(h)
	}
	// pos[i] tracks leaf i's node index in the current level.
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for j := 0; j < len(level); j += 2 {
			l := level[j]
			r := l
			if j+1 < len(level) {
				r = level[j+1]
			}
			next = append(next, merkleNode(l, r))
		}
		for i := range pos {
			j := pos[i]
			sib := j ^ 1
			if sib >= len(level) {
				sib = j // odd tail: self-paired
			}
			paths[i] = append(paths[i], level[sib])
			pos[i] = j / 2
		}
		level = next
	}
	return level[0], paths
}

func batchDigest(root [32]byte, leaves int, g, p *big.Int, nonce []byte, dhPub *big.Int) []byte {
	h := sha256.New()
	h.Write([]byte("snic-batch-quote-v1"))
	h.Write(root[:])
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(leaves))
	h.Write(lb[:])
	h.Write(g.Bytes())
	h.Write(p.Bytes())
	h.Write(nonce)
	h.Write(dhPub.Bytes())
	return h.Sum(nil)
}

// AttestBatch quotes N pending launch hashes in one crypto pass: one DH
// contribution and one AK signature over the Merkle root, with a
// per-function inclusion proof. It returns the quote, the proofs (one
// per hash, in input order), and the device-side DH secret x, exactly
// as Attest does for one function.
func (d *Device) AttestBatch(hashes [][32]byte, nonce []byte) (BatchQuote, []BatchProof, *big.Int, error) {
	if len(hashes) == 0 {
		return BatchQuote{}, nil, nil, fmt.Errorf("attest: empty batch")
	}
	root, paths := merkleTree(hashes)
	x, err := rand.Int(rand.Reader, Group14P)
	if err != nil {
		return BatchQuote{}, nil, nil, err
	}
	dhPub := groupExp(x)
	sig, err := ecdsa.SignASN1(rand.Reader, d.akPriv,
		batchDigest(root, len(hashes), Group14G, Group14P, nonce, dhPub))
	if err != nil {
		return BatchQuote{}, nil, nil, err
	}
	akPub := elliptic.Marshal(elliptic.P256(), d.akPriv.PublicKey.X, d.akPriv.PublicKey.Y)
	proofs := make([]BatchProof, len(hashes))
	for i, h := range hashes {
		proofs[i] = BatchProof{LaunchHash: h, Index: i, Path: paths[i]}
	}
	return BatchQuote{
		Root:   root,
		Leaves: len(hashes),
		G:      Group14G, P: Group14P,
		Nonce:   append([]byte(nil), nonce...),
		DHPub:   dhPub,
		RootSig: sig,
		AKPub:   akPub,
		AKSig:   append([]byte(nil), d.akSig...),
		EKCert:  d.ekCert,
	}, proofs, x, nil
}

// Batch verification errors.
var (
	ErrBadBatchSig = fmt.Errorf("attest: batch root signature invalid")
	ErrBadProof    = fmt.Errorf("attest: Merkle inclusion proof does not reach the batch root")
)

// VerifyBatch checks one function's membership in a batch quote: the
// vendor→EK→AK chain and root signature (as Verify checks a single
// quote), then the Merkle path from the expected launch hash to the
// signed root.
func VerifyBatch(vendorPub *ecdsa.PublicKey, q BatchQuote, p BatchProof, expectedHash [32]byte, nonce []byte) error {
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
	// 3. AK signed the batch root.
	if q.G.Cmp(Group14G) != 0 || q.P.Cmp(Group14P) != 0 {
		return ErrBadGroup
	}
	if !ecdsa.VerifyASN1(akPub, batchDigest(q.Root, q.Leaves, q.G, q.P, q.Nonce, q.DHPub), q.RootSig) {
		return ErrBadBatchSig
	}
	// 4. Freshness.
	if len(nonce) == 0 || len(q.Nonce) != len(nonce) || !equalBytes(q.Nonce, nonce) {
		return ErrWrongNonce
	}
	// 5. The expected hash is a member: walk the proof to the root.
	if p.LaunchHash != expectedHash {
		return ErrWrongHash
	}
	node := merkleLeaf(p.LaunchHash)
	idx := p.Index
	if idx < 0 || idx >= q.Leaves {
		return ErrBadProof
	}
	for _, sib := range p.Path {
		if idx%2 == 0 {
			node = merkleNode(node, sib)
		} else {
			node = merkleNode(sib, node)
		}
		idx /= 2
	}
	if node != q.Root {
		return ErrBadProof
	}
	return nil
}
