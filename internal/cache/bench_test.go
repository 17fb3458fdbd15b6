package cache

import (
	"testing"

	"snic/internal/mem"
	"snic/internal/sim"
)

// BenchmarkAccess measures one cache.Access on the Figure 5 L2 geometry
// (4 MB, 64 B lines, 16 ways) under both sharing policies. The hit-heavy
// stream cycles over a 128 KB window that every domain keeps resident
// (under Static each of the 16 domains owns one 256 KB way); the
// miss-heavy stream draws from a 64 MB window, sixteen times the cache.
func BenchmarkAccess(b *testing.B) {
	policies := []struct {
		name    string
		policy  Policy
		domains int
	}{
		{"shared", Shared, 1},
		{"static16", Static, 16},
	}
	streams := []struct {
		name   string
		window uint64
	}{
		{"hit-heavy", 128 << 10},
		{"miss-heavy", 64 << 20},
	}
	for _, p := range policies {
		for _, s := range streams {
			b.Run(p.name+"/"+s.name, func(b *testing.B) {
				c, err := New(Config{Name: "L2", Size: 4 << 20, LineSize: 64, Ways: 16, Policy: p.policy, Domains: p.domains})
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.DeriveRand(0xCACE, "bench-access", p.name, s.name)
				addrs := make([]mem.Addr, 1<<14)
				for i := range addrs {
					addrs[i] = mem.Addr(rng.Uint64() % s.window)
				}
				for i, pa := range addrs { // warm up
					c.Access(pa, i%p.domains, false)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Access(addrs[i&(len(addrs)-1)], i%p.domains, i&7 == 0)
				}
			})
		}
	}
}
