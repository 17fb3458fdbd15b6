package sim

import "math"

// zipfGuideBits sizes the guide index: a draw u lands in bucket
// ⌊u·2^zipfGuideBits⌋, and only that bucket's slice of the CDF is
// searched.
const zipfGuideBits = 12

// ZipfTable is the immutable, RNG-free half of a Zipf sampler: the
// inverted CDF over N ranks plus a guide index into it. Building one
// costs N math.Pow calls, so workloads that draw many streams over the
// same (N, s) build the table once and share it read-only through
// WithRand.
type ZipfTable struct {
	cdf []float64 // cumulative, cdf[len-1] == 1
	// guide[k] is the first rank whose cdf entry is >= k/2^zipfGuideBits,
	// for k in [0, 2^zipfGuideBits]. A u in bucket k therefore has its
	// answer in [guide[k], guide[k+1]]. The extra final entry covers
	// u == 1, which Float64 never draws but the search still answers.
	guide []int32
}

// NewZipfTable builds the table over n ranks with exponent s.
// It panics if n <= 0, n exceeds the int32 range, or s < 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if n > math.MaxInt32 {
		panic("sim: Zipf with more than 2^31-1 ranks")
	}
	if s < 0 {
		panic("sim: Zipf with negative skew")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against FP rounding
	const buckets = 1 << zipfGuideBits
	guide := make([]int32, buckets+2)
	i := 0
	for k := 0; k <= buckets; k++ {
		// k/buckets is exact: a small integer over a power of two.
		for cdf[i] < float64(k)/buckets {
			i++
		}
		guide[k] = int32(i)
	}
	guide[buckets+1] = int32(n - 1)
	return &ZipfTable{cdf: cdf, guide: guide}
}

// WithRand returns a sampler over t that draws from rng.
func (t *ZipfTable) WithRand(rng *Rand) *Zipf { return &Zipf{t: t, rng: rng} }

// search returns the first rank whose cdf entry is >= u, for u in
// [0, 1]. Scaling by a power of two is exact in floating point, so the
// bucket index is exactly ⌊u·2^zipfGuideBits⌋ and the guide entries are
// exact bounds: the result equals a binary search over the whole CDF.
func (t *ZipfTable) search(u float64) int {
	k := int(u * (1 << zipfGuideBits))
	lo, hi := int(t.guide[k]), int(t.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^s. The paper's ICTF workload pools 100,000 flows with a Zipf
// skewness of 1.1 (§5.3); this sampler reproduces that distribution
// deterministically via an inverted CDF.
type Zipf struct {
	t   *ZipfTable
	rng *Rand
}

// NewZipf builds a sampler over n ranks with exponent s using rng.
// It panics if n <= 0 or s < 0.
func NewZipf(rng *Rand, n int, s float64) *Zipf {
	return NewZipfTable(n, s).WithRand(rng)
}

// WithRand returns a sampler that shares z's (immutable) table but draws
// from rng.
func (z *Zipf) WithRand(rng *Rand) *Zipf { return z.t.WithRand(rng) }

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.t.cdf) }

// Next returns the next sampled rank in [0, N).
func (z *Zipf) Next() int { return z.t.search(z.rng.Float64()) }

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i == 0 {
		return z.t.cdf[0]
	}
	return z.t.cdf[i] - z.t.cdf[i-1]
}
