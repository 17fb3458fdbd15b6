package sim

import "testing"

// The Figure 5 DPI streams sample graph rows from a 65,536-rank Zipf
// table with s = 1.2; these benchmarks measure building that table and
// drawing from it.

func BenchmarkZipfTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewZipfTable(1<<16, 1.2)
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(NewRand(1), 1<<16, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
