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

// BenchmarkRandBytes fills payloads of the IMIX payload lengths the
// trace package draws (26, 536 and 1,400 B at 7:4:1), the payload
// synthesis cost behind every generated packet.
func BenchmarkRandBytes(b *testing.B) {
	lens := []int{26, 26, 26, 26, 26, 26, 26, 536, 536, 536, 536, 1400}
	buf := make([]byte, 1400)
	total := 0
	for _, n := range lens {
		total += n
	}
	r := NewRand(1)
	b.SetBytes(int64(total / len(lens)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Bytes(buf[:lens[i%len(lens)]])
	}
}
