package cache

import (
	"testing"

	"snic/internal/mem"
	"snic/internal/sim"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T, policy Policy, domains int) *Cache {
	return mustNew(t, Config{
		Name: "L2", Size: 8 << 10, LineSize: 64, Ways: 4,
		Policy: policy, Domains: domains,
	})
}

func TestGeometry(t *testing.T) {
	c := small(t, Shared, 1)
	if c.Sets() != 32 || c.Ways() != 4 || c.LineSize() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := New(Config{Size: 0, LineSize: 64, Ways: 4}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := New(Config{Size: 1 << 10, LineSize: 64, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	// Static with more domains than ways is impossible.
	if _, err := New(Config{Size: 8 << 10, LineSize: 64, Ways: 2, Policy: Static, Domains: 4}); err == nil {
		t.Fatal("unpartitionable config accepted")
	}
	// One set of 1-byte lines: the tag is the whole address, so bit 63
	// cannot serve as the valid bit. Two sets leave it free.
	if _, err := New(Config{Size: 4, LineSize: 1, Ways: 4}); err == nil {
		t.Fatal("one set of 1-byte lines accepted")
	}
	c, err := New(Config{Size: 8, LineSize: 1, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	top := mem.Addr(1) << 63
	if c.Access(top, 0, false) || c.Contains(top|2) || !c.Contains(top) {
		t.Fatal("top-bit address aliases another line")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := small(t, Shared, 1)
	if c.Access(0x1000, 0, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, 0, false) {
		t.Fatal("warm access missed")
	}
	s := c.Stats(0)
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSameLineDifferentByte(t *testing.T) {
	c := small(t, Shared, 1)
	c.Access(0x1000, 0, false)
	if !c.Access(0x1000+63, 0, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1000+64, 0, false) {
		t.Fatal("next-line access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, Shared, 1) // 32 sets, 4 ways
	setStride := uint64(32 * 64)
	// Fill one set with 4 distinct tags.
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	// Touch tag 0 so tag 1 becomes LRU.
	c.Access(0, 0, false)
	// A fifth tag evicts tag 1.
	c.Access(mem.Addr(4*setStride), 0, false)
	if !c.Access(0, 0, false) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(mem.Addr(1*setStride), 0, false) {
		t.Fatal("LRU line survived")
	}
}

func TestSharedCrossDomainInterference(t *testing.T) {
	c := small(t, Shared, 2)
	setStride := uint64(32 * 64)
	// Domain 0 warms 4 lines of set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	// Domain 1 thrashes the same set.
	for i := uint64(10); i < 14; i++ {
		c.Access(mem.Addr(i*setStride), 1, false)
	}
	// Domain 0's lines are gone: interference (and a side channel).
	c.ResetStats()
	for i := uint64(0); i < 4; i++ {
		c.Access(mem.Addr(i*setStride), 0, false)
	}
	if c.Stats(0).Misses == 0 {
		t.Fatal("no interference under shared policy?")
	}
}

func TestStaticPartitionIsolation(t *testing.T) {
	c := small(t, Static, 2) // 4 ways -> 2 per domain
	setStride := uint64(32 * 64)
	// Domain 0 warms its 2 ways of set 0.
	c.Access(0, 0, false)
	c.Access(mem.Addr(setStride), 0, false)
	// Domain 1 thrashes the same set heavily.
	for i := uint64(10); i < 30; i++ {
		c.Access(mem.Addr(i*setStride), 1, false)
	}
	// Domain 0's lines MUST survive: hard partition.
	c.ResetStats()
	c.Access(0, 0, false)
	c.Access(mem.Addr(setStride), 0, false)
	if c.Stats(0).Misses != 0 {
		t.Fatalf("static partition leaked evictions: %+v", c.Stats(0))
	}
}

func TestStaticNoCrossDomainHits(t *testing.T) {
	c := small(t, Static, 2)
	c.Access(0x2000, 0, false)
	// Domain 1 accessing the same physical line must MISS (no shared
	// lines across partitions — that read-hit sharing is the "soft
	// partitioning" hole the paper calls out in Intel CAT).
	if c.Access(0x2000, 1, false) {
		t.Fatal("cross-domain hit under static partitioning")
	}
}

func TestSharedCrossDomainHit(t *testing.T) {
	c := small(t, Shared, 2)
	c.Access(0x2000, 0, false)
	if !c.Access(0x2000, 1, false) {
		t.Fatal("shared policy should serve cross-domain hits")
	}
}

func TestFlushDomain(t *testing.T) {
	c := small(t, Shared, 2)
	c.Access(0x0, 0, false)
	c.Access(0x40, 0, false)
	c.Access(0x80, 1, false)
	if n := c.FlushDomain(0); n != 2 {
		t.Fatalf("flushed %d lines", n)
	}
	if c.OccupancyOf(0) != 0 {
		t.Fatal("domain 0 lines survive flush")
	}
	if c.OccupancyOf(1) != 1 {
		t.Fatal("domain 1 lines damaged by flush")
	}
	if c.Contains(0x0) {
		t.Fatal("flushed line still resident")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := small(t, Shared, 1)
	c.Access(0x0, 0, false)
	before := c.Stats(0)
	c.Contains(0x0)
	c.Contains(0x999940)
	if c.Stats(0) != before {
		t.Fatal("Contains changed stats")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty miss rate not 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 || s.Accesses() != 4 {
		t.Fatalf("stats math wrong: %+v", s)
	}
}

func TestLastDomainAbsorbsRemainderWays(t *testing.T) {
	// 4 ways, 3 domains: domains get 1,1,2 ways. All must be usable.
	c := mustNew(t, Config{Size: 8 << 10, LineSize: 64, Ways: 4, Policy: Static, Domains: 3})
	setStride := uint64(32 * 64)
	c.Access(0, 2, false)
	c.Access(mem.Addr(setStride), 2, false)
	c.ResetStats()
	c.Access(0, 2, false)
	c.Access(mem.Addr(setStride), 2, false)
	if c.Stats(2).Misses != 0 {
		t.Fatal("last domain did not get remainder ways")
	}
}

// Property-style: under Static, one domain's hit/miss sequence is
// completely independent of another domain's (interleaved) activity.
func TestStaticNonInterferenceProperty(t *testing.T) {
	run := func(withAttacker bool, seed uint64) []bool {
		c := small(t, Static, 2)
		rng := sim.NewRand(seed)
		attacker := sim.NewRand(999)
		var outcomes []bool
		for i := 0; i < 4000; i++ {
			va := mem.Addr(rng.Intn(1 << 14))
			outcomes = append(outcomes, c.Access(va, 0, false))
			if withAttacker {
				for j := 0; j < 3; j++ {
					c.Access(mem.Addr(attacker.Intn(1<<16)), 1, false)
				}
			}
		}
		return outcomes
	}
	quiet := run(false, 7)
	noisy := run(true, 7)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("access %d outcome changed by co-tenant activity", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Shared.String() != "shared" || Static.String() != "static" {
		t.Fatal("policy names")
	}
}

func secdcpCache(t *testing.T) (*Cache, *Resizer) {
	t.Helper()
	c := mustNew(t, Config{Size: 16 << 10, LineSize: 64, Ways: 8, Policy: Static, Domains: 3})
	r, err := NewResizer(c, []int{2, 2, 2}) // 2 flexible ways start with the NFs
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func TestResizerInitialAllocation(t *testing.T) {
	_, r := secdcpCache(t)
	if r.Ways(0) != 2 || r.Ways(1) != 3 || r.Ways(2) != 3 {
		t.Fatalf("allocation = %d/%d/%d", r.Ways(0), r.Ways(1), r.Ways(2))
	}
}

func TestResizerValidation(t *testing.T) {
	shared := mustNew(t, Config{Size: 8 << 10, LineSize: 64, Ways: 4, Policy: Shared, Domains: 2})
	if _, err := NewResizer(shared, []int{1, 1}); err == nil {
		t.Fatal("shared cache accepted")
	}
	static := mustNew(t, Config{Size: 8 << 10, LineSize: 64, Ways: 4, Policy: Static, Domains: 2})
	if _, err := NewResizer(static, []int{1}); err == nil {
		t.Fatal("wrong minimum count accepted")
	}
	if _, err := NewResizer(static, []int{3, 3}); err == nil {
		t.Fatal("over-subscribed minimums accepted")
	}
	if _, err := NewResizer(static, []int{0, 1}); err == nil {
		t.Fatal("zero minimum accepted")
	}
}

func TestResizerGrowsOSUnderPressure(t *testing.T) {
	c, r := secdcpCache(t)
	rng := sim.NewRand(3)
	// The OS thrashes (way beyond its slice): Tick should grow domain 0.
	for i := 0; i < 500; i++ {
		c.Access(mem.Addr(rng.Intn(1<<20))&^63, 0, false)
	}
	r.Tick()
	if r.Ways(0) != 3 {
		t.Fatalf("OS ways = %d after pressure, want 3", r.Ways(0))
	}
	// NF minimums are never violated no matter how long pressure lasts.
	for e := 0; e < 10; e++ {
		for i := 0; i < 500; i++ {
			c.Access(mem.Addr(rng.Intn(1<<20))&^63, 0, false)
		}
		r.Tick()
	}
	if r.Ways(1) < 2 || r.Ways(2) < 2 {
		t.Fatalf("NF minimums violated: %d/%d", r.Ways(1), r.Ways(2))
	}
}

func TestResizerReturnsWaysWhenRelaxed(t *testing.T) {
	c, r := secdcpCache(t)
	rng := sim.NewRand(4)
	for i := 0; i < 500; i++ {
		c.Access(mem.Addr(rng.Intn(1<<20))&^63, 0, false)
	}
	r.Tick() // grows OS to 5
	grown := r.Ways(0)
	// Quiet OS epochs: ways drift back toward NFs.
	for e := 0; e < 5; e++ {
		r.Tick()
	}
	if r.Ways(0) >= grown {
		t.Fatalf("OS kept %d ways despite being idle", r.Ways(0))
	}
}

func TestResizerFlushesStrandedLines(t *testing.T) {
	c, r := secdcpCache(t)
	rng := sim.NewRand(5)
	// NF domain 2 warms lines in its current ways.
	var addrs []mem.Addr
	for i := 0; i < 64; i++ {
		a := mem.Addr(i*64*int(c.Sets())) & ^mem.Addr(63)
		c.Access(a, 2, false)
		addrs = append(addrs, a)
	}
	// Force a reshuffle by pressuring the OS.
	for i := 0; i < 500; i++ {
		c.Access(mem.Addr(rng.Intn(1<<20))&^63, 0, false)
	}
	r.Tick()
	// No line may live outside its owner's range (checked indirectly:
	// every resident line of domain 2 must still hit for domain 2 only
	// within its new ways, and occupancy must not exceed its allocation).
	maxLines := r.Ways(2) * c.Sets()
	if c.OccupancyOf(2) > maxLines {
		t.Fatalf("domain 2 holds %d lines with only %d ways", c.OccupancyOf(2), r.Ways(2))
	}
	_ = addrs
}

// The SecDCP information-flow property: the resize schedule depends only
// on the OS's behaviour. Whatever the NFs do, the sequence of allocations
// is identical.
func TestResizerIgnoresNFBehaviour(t *testing.T) {
	run := func(nfActive bool) []int {
		c, r := secdcpCache(t)
		osRng := sim.NewRand(7)
		nfRng := sim.NewRand(8)
		var allocs []int
		for e := 0; e < 20; e++ {
			for i := 0; i < 300; i++ {
				c.Access(mem.Addr(osRng.Intn(1<<18))&^63, 0, false)
				if nfActive {
					c.Access(mem.Addr(nfRng.Intn(1<<22))&^63, 1, false)
					c.Access(mem.Addr(nfRng.Intn(1<<22))&^63, 2, true)
				}
			}
			r.Tick()
			allocs = append(allocs, r.Ways(0))
		}
		return allocs
	}
	quiet := run(false)
	noisy := run(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("epoch %d: allocation %d vs %d — NF behaviour leaked into resize",
				i, quiet[i], noisy[i])
		}
	}
}
