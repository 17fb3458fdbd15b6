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

// BenchmarkScanIMIX scans IMIX payloads against the 8,000-pattern
// ruleset. random is the NF profiles' payloads, where most bytes are in
// no pattern and Scan splits lanes at once; text is printable payloads
// with CRLF line breaks, so the only reset bytes are sparse; noreset
// adds a pattern of all 256 byte values, so no byte resets and Scan
// always walks one lane.
func BenchmarkScanIMIX(b *testing.B) {
	rng := sim.NewRand(1)
	patterns := trace.DPIPatterns(rng, 8000)
	lens := make([]int, 1024)
	for i := range lens {
		lens[i] = trace.IMIXLen(rng)
	}
	random := func(n int) []byte {
		p := make([]byte, n)
		rng.Bytes(p)
		return p
	}
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for _, c := range []struct {
		name     string
		patterns [][]byte
		payload  func(n int) []byte
	}{
		{"random", patterns, random},
		{"text", patterns, func(n int) []byte { return text(rng, nil, n)[:n] }},
		{"noreset", append(patterns[:len(patterns):len(patterns)], every), random},
	} {
		a, err := Compile(c.patterns)
		if err != nil {
			b.Fatal(err)
		}
		payloads := make([][]byte, len(lens))
		total := 0
		for i, n := range lens {
			payloads[i] = c.payload(n)
			total += n
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(total / len(payloads)))
			b.ReportAllocs()
			var dst []Match
			for i := 0; i < b.N; i++ {
				dst = a.Scan(payloads[i%len(payloads)], dst[:0])
			}
		})
	}
}
