// Control-path fast paths for serverless NF churn (λ-NIC-style
// workloads: thousands of short-lived functions per NIC). All three are
// strictly opt-in — the zero-value FastPaths leaves every trusted
// instruction bit-identical to the paper-calibrated model — because the
// paper's Figure 6 numbers are the goldens everything else is pinned
// against.
//
//   - Warm pool: nf_teardown scrubs as always but parks the zeroed
//     frames in a per-device arena (mem.Pooled); the next nf_launch
//     that fits serves from the arena and digests only the image, since
//     the scrubbed remainder is already attested-zero (the digest of a
//     zero page is a constant the security coprocessor caches).
//   - Parallel scrub: the teardown scrub stripes across the device's
//     currently-idle programmable cores, scaling the ~6.6 GB/s rate by
//     the stripe count.
//   - Batched attestation: AttestNFBatch quotes N pending launches in
//     one crypto pass (see attest.AttestBatch) — one DH contribution
//     and one AK signature amortized over the batch.
package snic

import (
	"fmt"
	"math/big"

	"snic/internal/attest"
	"snic/internal/mem"
	"snic/internal/obs"
)

// FastPaths selects the churn optimizations. The zero value is the
// paper-exact device.
type FastPaths struct {
	WarmPool      bool   // park scrubbed frames for reuse
	PoolFrames    uint64 // arena bound in frames; 0 = a quarter of DRAM
	ParallelScrub bool   // stripe teardown scrub across idle cores
}

// SetFastPaths reconfigures the device's fast paths. Disabling the warm
// pool drains any parked frames back to the free list.
func (d *Device) SetFastPaths(fp FastPaths) {
	if fp.WarmPool {
		frames := fp.PoolFrames
		if frames == 0 {
			frames = d.pm.NumFrames() / 4
		}
		d.pm.SetPoolCapacity(frames)
	} else {
		d.pm.SetPoolCapacity(0)
	}
	d.fp = fp
	d.ensureFastPathObs()
}

// FastPathConfig returns the active fast-path selection.
func (d *Device) FastPathConfig() FastPaths { return d.fp }

// ensureFastPathObs interns the pool hit/miss counters. They are
// created only once a collector is attached AND the warm pool is
// enabled: interned series render in metric dumps even at zero, and the
// default-path goldens must not see them.
func (d *Device) ensureFastPathObs() {
	if d.obsReg == nil || !d.fp.WarmPool || d.ctrPoolHit != nil {
		return
	}
	d.ctrPoolHit = d.obsReg.Counter(obs.Label{Device: d.cfg.Serial, Owner: "-", Component: "snic", Name: "pool_hit"})
	d.ctrPoolMiss = d.obsReg.Counter(obs.Label{Device: d.cfg.Serial, Owner: "-", Component: "snic", Name: "pool_miss"})
}

// allocNFBytes reserves an NF's DRAM, serving from the warm arena when
// the fast path is on. The returned hit flag is false on the default
// path, where the allocation is exactly the seed allocator's.
func (d *Device) allocNFBytes(id ID, n uint64) (mem.Range, bool, error) {
	if !d.fp.WarmPool {
		r, err := d.pm.AllocBytes(id, n)
		return r, false, err
	}
	r, hit, err := d.pm.AllocBytesPooled(id, n)
	if err != nil {
		return r, false, err
	}
	if hit {
		d.ctrPoolHit.Add(1)
	} else {
		d.ctrPoolMiss.Add(1)
	}
	return r, hit, nil
}

// digestMS models the launch-hash digest latency. A pool hit digests
// only the image: the remainder of the reservation came scrubbed out of
// the arena, and the coprocessor substitutes its cached zero-page
// digest instead of streaming zeroes at 470 MB/s.
func (d *Device) digestMS(spec LaunchSpec, poolHit bool) float64 {
	bytes := spec.MemBytes
	if poolHit {
		bytes = uint64(len(spec.Image))
	}
	return float64(bytes) / d.rates.DigestBytesPerSec * 1e3
}

// scrubStripes returns how many ways the teardown scrub is striped:
// one (serial, the paper model) unless ParallelScrub is on, in which
// case every currently-idle programmable core carries a stripe. Called
// after the dying NF's cores are freed, so a single-tenant device
// scrubs at full width.
func (d *Device) scrubStripes() int {
	if !d.fp.ParallelScrub {
		return 1
	}
	if idle := d.FreeCores(); idle > 1 {
		return idle
	}
	return 1
}

// releaseNFMem scrubs and frees an NF's DRAM, parking the frames in the
// warm arena when the fast path is on. Bytes scrubbed are identical
// either way — pooling changes where the zeroed frames wait, not
// whether they are zeroed.
func (d *Device) releaseNFMem(id ID) uint64 {
	if !d.fp.WarmPool {
		return d.pm.ReleaseAll(id)
	}
	scrubbed, _ := d.pm.ReleaseAllPooled(id)
	return scrubbed
}

// AttestNFBatch is batched nf_attest: one quote covering every id, with
// a per-function Merkle inclusion proof (verify with
// attest.VerifyBatch). It returns the batch quote, the proofs in id
// order, the device-side DH secret, and the total simulated latency in
// milliseconds: one RSA signature amortized across the batch plus one
// hash fold per function.
func (d *Device) AttestNFBatch(ids []ID, nonce []byte) (attest.BatchQuote, []attest.BatchProof, *big.Int, float64, error) {
	if len(ids) == 0 {
		return attest.BatchQuote{}, nil, nil, 0, fmt.Errorf("snic: empty attestation batch")
	}
	hashes := make([][32]byte, len(ids))
	for i, id := range ids {
		v, ok := d.nfs[id]
		if !ok {
			return attest.BatchQuote{}, nil, nil, 0, noNF(id)
		}
		hashes[i] = v.Hash
	}
	q, proofs, x, err := d.hw.AttestBatch(hashes, nonce)
	if err != nil {
		return attest.BatchQuote{}, nil, nil, 0, err
	}
	shaMS := d.rates.AttestSHASec * 1e3 * float64(len(ids))
	signMS := d.rates.RSASignSec * 1e3
	d.span("attest/batch_sha", shaMS)
	d.span("attest/batch_rsa_sign", signMS)
	return q, proofs, x, shaMS + signMS, nil
}
