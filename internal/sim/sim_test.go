package sim

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		n := 1 + r.Intn(100)
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandFloat64Mean(t *testing.T) {
	r := NewRand(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// refBytes is Bytes written one byte at a time: each draw supplies the
// next eight bytes, least significant first, and a short tail takes the
// low bytes of one more draw.
func refBytes(r *Rand, b []byte) {
	var v uint64
	for i := range b {
		if i%8 == 0 {
			v = r.Uint64()
		}
		b[i] = byte(v)
		v >>= 8
	}
}

func TestRandBytes(t *testing.T) {
	lens := []int{}
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 64, 1000)
	r, ref := NewRand(5), NewRand(5)
	h := fnv.New64a()
	for _, n := range lens {
		got, want := make([]byte, n), make([]byte, n)
		r.Bytes(got)
		refBytes(ref, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("Bytes(%d) = %x, byte-by-byte reference %x", n, got, want)
		}
		h.Write(got)
	}
	if r.State() != ref.State() {
		t.Fatalf("Bytes consumed a different number of draws: state %#x, ref %#x", r.State(), ref.State())
	}
	// Digest and end state of the same draws, recorded from the
	// shift-and-store implementation.
	if d := h.Sum64(); d != 0xad74456829d54577 || r.State() != 0xf73ed29df04aad50 {
		t.Fatalf("Bytes digest %#x state %#x, want 0xad74456829d54577 state 0xf73ed29df04aad50", d, r.State())
	}
}

func TestRandForkIndependence(t *testing.T) {
	parent := NewRand(99)
	child := parent.Fork()
	// The child stream must differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork stream matches parent %d/64 draws", same)
	}
}

func TestZipfRanks(t *testing.T) {
	z := NewZipf(NewRand(1), 1000, 1.1)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf rank %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must be sampled far more often than rank 999 with s=1.1.
	z := NewZipf(NewRand(2), 1000, 1.1)
	counts := make([]int, 1000)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] < 20*counts[99] {
		t.Fatalf("insufficient skew: rank0=%d rank99=%d", counts[0], counts[99])
	}
	// Empirical frequency of rank 0 should be near its analytic probability.
	want := z.Prob(0)
	got := float64(counts[0]) / n
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("rank-0 frequency %v, want ~%v", got, want)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(NewRand(3), 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.15 {
			t.Fatalf("s=0 not uniform: rank %d count %d", i, c)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(NewRand(4), 257, 1.1)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// fullSearch is the sampler's original lookup, kept as the reference
// for the guide-indexed search: the first cdf entry >= u, by binary
// search over the whole table.
func fullSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesFullSearch checks that the guide-indexed search
// returns exactly the full-range binary search's rank: on random draws,
// on every bucket boundary k/4096, and on every CDF value, where the
// two answers are easiest to tell apart.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4097, 65536} {
		for _, s := range []float64{0, 1.1, 1.2} {
			tab := NewZipfTable(n, s)
			check := func(what string, u float64) {
				if got, want := tab.search(u), fullSearch(tab.cdf, u); got != want {
					t.Fatalf("n=%d s=%v %s u=%v: guide search %d, full search %d", n, s, what, u, got, want)
				}
			}
			rng := NewRand(uint64(n)*31 + uint64(s*10))
			for i := 0; i < 100000; i++ {
				check("draw", rng.Float64())
			}
			for k := 0; k < 1<<zipfGuideBits; k++ {
				check("boundary", float64(k)/(1<<zipfGuideBits))
			}
			for _, c := range tab.cdf {
				check("cdf value", c)
			}
		}
	}
}

// TestZipfWithRandSharesTable checks that samplers stamped from one
// table draw exactly what NewZipf's own sampler draws.
func TestZipfWithRandSharesTable(t *testing.T) {
	tab := NewZipfTable(5000, 1.2)
	a, b := tab.WithRand(NewRand(9)), NewZipf(NewRand(9), 5000, 1.2)
	c := b.WithRand(NewRand(9))
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y || y != z {
			t.Fatalf("draw %d: table %d, NewZipf %d, WithRand %d", i, x, y, z)
		}
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 || s.N != 3 || s.Mean != 2 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.P1 > s.Median || s.Median > s.P99 {
		t.Fatalf("percentiles out of order: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 9 {
		t.Fatal("percentile endpoints wrong")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			q := Percentile(xs, p)
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	Summarize(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestDeriveSeedLabelBoundaries(t *testing.T) {
	// ("ab","c") and ("a","bc") concatenate identically; the separator
	// must still distinguish them.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatal("label boundary lost")
	}
	if DeriveSeed(1, "x") == DeriveSeed(1, "x", "") {
		t.Fatal("trailing empty label lost")
	}
	if DeriveSeed(1) == DeriveSeed(2) {
		t.Fatal("base seed ignored")
	}
	if DeriveSeed(1, "x") != DeriveSeed(1, "x") {
		t.Fatal("derivation not stable")
	}
}

func TestDeriveRandStreamsDecorrelated(t *testing.T) {
	// Streams for adjacent job keys must not collide or track each other.
	a := DeriveRand(7, "exp", "job0")
	b := DeriveRand(7, "exp", "job1")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between sibling streams", same)
	}
}

func TestDeriveRandIndependentOfCallOrder(t *testing.T) {
	// Unlike Fork, derivation must not depend on other draws: consuming
	// one stream first cannot move a sibling's stream.
	first := DeriveRand(7, "exp", "a").Uint64()
	burn := DeriveRand(7, "exp", "b")
	for i := 0; i < 100; i++ {
		burn.Uint64()
	}
	if got := DeriveRand(7, "exp", "a").Uint64(); got != first {
		t.Fatalf("stream moved: %x != %x", got, first)
	}
}
