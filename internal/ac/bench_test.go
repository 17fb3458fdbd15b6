package ac

import (
	"testing"

	"snic/internal/sim"
	"snic/internal/trace"
)

// The DPI NF profiles compile an IDS-style ruleset and scan IMIX
// payloads; these benchmarks measure both at the 8,000-pattern size.

func BenchmarkCompile(b *testing.B) {
	patterns := trace.DPIPatterns(sim.NewRand(1), 8000)
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(patterns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanIMIX(b *testing.B) {
	rng := sim.NewRand(1)
	a, err := Compile(trace.DPIPatterns(rng, 8000))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, 1024)
	total := 0
	for i := range payloads {
		payloads[i] = make([]byte, trace.IMIXLen(rng))
		rng.Bytes(payloads[i])
		total += len(payloads[i])
	}
	b.SetBytes(int64(total / len(payloads)))
	var dst []Match
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.Scan(payloads[i%len(payloads)], dst[:0])
	}
}
