package nf

import (
	"testing"

	"snic/internal/cpu"
	"snic/internal/mem"
	"snic/internal/sim"
	"snic/internal/trace"
)

// BenchmarkStreamNextBatch measures one packet's op generation — flow
// draw, per-NF cost and op queue — for each NF at the paper's suite
// sizes, over a 100,000-flow ICTF pool. Each iteration is one packet.
func BenchmarkStreamNextBatch(b *testing.B) {
	cfg := SuiteConfig{Seed: 1}
	cfg.defaults()
	pool := trace.NewICTF(sim.NewRand(1), 100000)
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			f, err := New(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := f.NewStream(sim.NewRand(2), pool, mem.Addr(1)<<32).(cpu.BatchStream)
			buf := make([]cpu.Op, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(buf)
			}
		})
	}
}
