package attest

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"snic/internal/sim"
)

func checkGroupExp(t *testing.T, x *big.Int) {
	t.Helper()
	want := new(big.Int).Exp(Group14G, x, Group14P)
	if got := groupExp(x); got.Cmp(want) != 0 {
		t.Fatalf("groupExp(%x) = %x, want %x", x, got, want)
	}
}

func TestGroupExpEdgeExponents(t *testing.T) {
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(Group14P, one)
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(one, combBits), one)
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(pm1, one), pm1, Group14P, allOnes,
		new(big.Int).Lsh(one, combBits), // past the comb: generic path
	}
	// Bits on and next to every row and block boundary, alone and
	// together, so each table index bit and each comb column is hit.
	var boundary, below big.Int
	for i := 0; i < combRows; i++ {
		for j := 0; j < combTables; j++ {
			p := i*combRowBits + j*combBlockBits
			xs = append(xs, new(big.Int).Lsh(one, uint(p)))
			boundary.SetBit(&boundary, p, 1)
			if p > 0 {
				xs = append(xs, new(big.Int).Lsh(one, uint(p-1)))
				below.SetBit(&below, p-1, 1)
			}
		}
	}
	xs = append(xs, &boundary, &below, new(big.Int).Add(&boundary, &below))
	// One full row and one full block of ones.
	xs = append(xs,
		new(big.Int).Sub(new(big.Int).Lsh(one, combRowBits), one),
		new(big.Int).Lsh(new(big.Int).Sub(new(big.Int).Lsh(one, combBlockBits), one), 3*combRowBits+combBlockBits))
	for _, x := range xs {
		checkGroupExp(t, x)
	}
}

func TestGroupExpRandomExponents(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		x, err := rand.Int(rand.Reader, Group14P)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupExp(t, x)
	}
	// Short exponents leave the high rows empty.
	rng := sim.NewRand(15)
	for i := 0; i < 64; i++ {
		checkGroupExp(t, new(big.Int).SetUint64(rng.Uint64()>>uint(i)))
	}
}

// TestGroupExpConcurrentFirstUse makes concurrent groupExp calls the
// first ones after the table is reset, so the lazy build runs under -race
// with many goroutines waiting on it.
func TestGroupExpConcurrentFirstUse(t *testing.T) {
	combTab = sync.OnceValue(buildComb)
	const g = 16
	xs := make([]*big.Int, g)
	for i := range xs {
		x, err := rand.Int(rand.Reader, Group14P)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = x
	}
	got := make([]*big.Int, g)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = groupExp(xs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, x := range xs {
		if want := new(big.Int).Exp(Group14G, x, Group14P); got[i].Cmp(want) != 0 {
			t.Fatalf("goroutine %d: groupExp mismatch", i)
		}
	}
}

func BenchmarkGroupExp(b *testing.B) {
	x, err := rand.Int(rand.Reader, Group14P)
	if err != nil {
		b.Fatal(err)
	}
	groupExp(x) // build the table outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groupExp(x)
	}
}

func BenchmarkAttest(b *testing.B) {
	_, d := testDevice(b)
	hash := launchHashFor("bench")
	nonce := []byte("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Attest(hash, nonce); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttestBatch(b *testing.B) {
	_, d := testDevice(b)
	hashes := make([][32]byte, 4)
	for i := range hashes {
		hashes[i] = launchHashFor(string(rune('a' + i)))
	}
	nonce := []byte("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := d.AttestBatch(hashes, nonce); err != nil {
			b.Fatal(err)
		}
	}
}
