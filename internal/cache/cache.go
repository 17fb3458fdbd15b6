// Package cache implements the set-associative cache hierarchy used by the
// timing simulator, together with the sharing policies §4.2 evaluates:
//
//   - Shared: the commodity baseline. Every security domain competes for
//     every way; cross-domain evictions are both a performance interference
//     channel and a classic prime+probe side channel.
//   - Static: S-NIC's hard partitioning — each domain receives an equal,
//     private slice of the ways ("Static partitioning allocated 1/N of the
//     cache to each of the N functions", §5.3). No line is ever shared or
//     stolen across domains, eliminating cache side channels.
//
// The cache exposes per-domain hit/miss statistics and, deliberately, the
// per-access hit/miss outcome — that observable is what a prime+probe
// attacker measures, and the attack tests use it to demonstrate leakage on
// Shared and silence on Static.
package cache

import (
	"fmt"
	"math/bits"
	"strconv"

	"snic/internal/mem"
	"snic/internal/obs"
)

// Policy selects the sharing discipline.
type Policy int

// Sharing policies.
const (
	Shared Policy = iota // full sharing (baseline, leaky)
	Static               // hard way-partitioning per domain (S-NIC)
)

func (p Policy) String() string {
	switch p {
	case Shared:
		return "shared"
	case Static:
		return "static"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Stats counts per-domain cache outcomes.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// validBit marks an occupied way in its tag word; an empty way's word is
// zero. A tag has at most 63 significant bits whenever a set spans two
// or more bytes of address space, which New requires, so the bit never
// collides with tag bits.
const validBit = 1 << 63

// Cache is one level of set-associative cache. Lines are stored as
// parallel slices (structure-of-arrays), sets*ways long and row-major by
// set: the way probe — the hottest loop in the whole simulator — reads
// only tag words, and the victim scan reads only LRU stamps.
type Cache struct {
	name     string
	lineSize uint64
	sets     int
	ways     int
	policy   Policy
	domains  int
	tags     []uint64 // tag | validBit; 0 = empty way
	stamps   []uint64 // LRU stamp (tick of last use); 0 exactly when empty
	owners   []int32  // domain that filled the line
	tick     uint64
	stats    []Stats
	// pow2 indexing: when both lineSize and sets are powers of two (every
	// real configuration), set/tag extraction is a shift and a mask. The
	// div/mod slow path stays behind locate for the rest.
	pow2      bool
	lineShift uint
	setShift  uint
	setMask   uint64
	// ranges[d] is the half-open way interval domain d may occupy,
	// precomputed at construction and on every wayAlloc install instead of
	// being rebuilt per access.
	ranges [][2]int32
	// wayAlloc, when non-nil, overrides the equal static split with
	// explicit per-domain way ranges (installed by the SecDCP Resizer).
	wayAlloc [][2]int
	// obs handles, indexed by domain; nil until Observe attaches a
	// collector, so the unobserved hot path pays one nil check.
	obsHits, obsMisses, obsEvictions []*obs.Counter
}

// Config describes a cache level.
type Config struct {
	Name     string
	Size     uint64 // total bytes
	LineSize uint64 // bytes per line
	Ways     int
	Policy   Policy
	Domains  int // number of security domains sharing this cache (>=1)
}

// New builds a cache. Size must be divisible by LineSize*Ways. Under the
// Static policy, Ways must be >= Domains so each domain gets at least one
// private way.
func New(cfg Config) (*Cache, error) {
	if cfg.LineSize == 0 || cfg.Ways <= 0 || cfg.Size == 0 {
		return nil, fmt.Errorf("cache: bad config %+v", cfg)
	}
	if cfg.Domains < 1 {
		cfg.Domains = 1
	}
	lines := cfg.Size / cfg.LineSize
	if lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	sets := int(lines) / cfg.Ways
	if cfg.Policy == Static && cfg.Ways < cfg.Domains {
		return nil, fmt.Errorf("cache: %d ways cannot be partitioned across %d domains", cfg.Ways, cfg.Domains)
	}
	if cfg.LineSize == 1 && sets == 1 {
		return nil, fmt.Errorf("cache: one set of 1-byte lines leaves no spare tag bit")
	}
	c := &Cache{
		name:     cfg.Name,
		lineSize: cfg.LineSize,
		sets:     sets,
		ways:     cfg.Ways,
		policy:   cfg.Policy,
		domains:  cfg.Domains,
		tags:     make([]uint64, int(lines)),
		stamps:   make([]uint64, int(lines)),
		owners:   make([]int32, int(lines)),
		stats:    make([]Stats, cfg.Domains),
	}
	if cfg.LineSize&(cfg.LineSize-1) == 0 && sets&(sets-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros64(cfg.LineSize))
		c.setShift = uint(bits.TrailingZeros64(uint64(sets)))
		c.setMask = uint64(sets) - 1
	}
	c.computeRanges()
	return c, nil
}

// locate splits a physical address into (set, tag). The pow2 fast path is
// exactly the div/mod pair below expressed as shift/mask.
func (c *Cache) locate(pa mem.Addr) (int, uint64) {
	if c.pow2 {
		block := uint64(pa) >> c.lineShift
		return int(block & c.setMask), block >> c.setShift
	}
	block := uint64(pa) / c.lineSize
	return int(block % uint64(c.sets)), block / uint64(c.sets)
}

// computeRanges rebuilds the per-domain way-range table from the policy
// and the current wayAlloc override.
func (c *Cache) computeRanges() {
	if c.ranges == nil {
		c.ranges = make([][2]int32, c.domains)
	}
	for d := 0; d < c.domains; d++ {
		if c.policy == Shared {
			c.ranges[d] = [2]int32{0, int32(c.ways)}
			continue
		}
		if c.wayAlloc != nil {
			r := c.wayAlloc[d]
			c.ranges[d] = [2]int32{int32(r[0]), int32(r[1])}
			continue
		}
		per := c.ways / c.domains
		lo := d * per
		hi := lo + per
		if d == c.domains-1 {
			hi = c.ways // last domain absorbs the remainder ways
		}
		c.ranges[d] = [2]int32{int32(lo), int32(hi)}
	}
}

// setWayAlloc installs an explicit per-domain way allocation (the SecDCP
// Resizer's mechanism), refreshes the precomputed range table, and
// flushes every line stranded outside its owner's new range: content
// must never be readable (or evictable) across a partition boundary.
func (c *Cache) setWayAlloc(alloc [][2]int) {
	c.wayAlloc = alloc
	c.computeRanges()
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			if c.tags[base+w] == 0 {
				continue
			}
			r := c.ranges[c.owners[base+w]]
			if int32(w) < r[0] || int32(w) >= r[1] {
				c.clear(base + w)
			}
		}
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return c.lineSize }

// Stats returns the accumulated statistics for a domain.
func (c *Cache) Stats(domain int) Stats { return c.stats[domain] }

// Observe attaches per-domain hit/miss/eviction counters to reg under
// the given device label, one owner label per domain. A nil reg leaves
// the cache detached (instrumentation stays free).
func (c *Cache) Observe(reg *obs.Registry, device string) {
	if reg == nil {
		return
	}
	component := "cache/" + c.name
	c.obsHits = make([]*obs.Counter, c.domains)
	c.obsMisses = make([]*obs.Counter, c.domains)
	c.obsEvictions = make([]*obs.Counter, c.domains)
	for d := 0; d < c.domains; d++ {
		owner := "dom" + strconv.Itoa(d)
		c.obsHits[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "hits"})
		c.obsMisses[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "misses"})
		c.obsEvictions[d] = reg.Counter(obs.Label{Device: device, Owner: owner, Component: component, Name: "evictions"})
	}
}

// wayRange returns the half-open way interval domain may occupy.
func (c *Cache) wayRange(domain int) (int, int) {
	r := c.ranges[domain]
	return int(r[0]), int(r[1])
}

// Access looks up the line containing pa on behalf of domain. It returns
// true on a hit. On a miss the line is filled (evicting the domain's LRU
// victim within its permitted ways) and false is returned. write is part
// of the reference interface; the model keeps no dirty state because it
// simulates no write-back traffic.
func (c *Cache) Access(pa mem.Addr, domain int, write bool) bool {
	c.tick++
	set, tag := c.locate(pa)
	tw := tag | validBit
	base := set * c.ways
	r := c.ranges[domain]
	lo, hi := base+int(r[0]), base+int(r[1])

	hit := -1
	if c.policy == Shared {
		// Every domain may hit on every way, including a line another
		// domain brought in (a shared physical line): that cross-domain
		// visibility is itself part of the side channel, and the reason
		// Intel CAT-style "soft" partitioning is insufficient. A fill
		// happens only after this probe missed the whole set, so a tag is
		// resident at most once per set and the first match is the line.
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == tw {
				hit = i
				break
			}
		}
	} else {
		// Static: hits can only come from the domain's own ways, because
		// no other placement ever occurs.
		for i := lo; i < hi; i++ {
			if c.tags[i] == tw && int(c.owners[i]) == domain {
				hit = i
				break
			}
		}
	}
	if hit >= 0 {
		c.stamps[hit] = c.tick
		c.stats[domain].Hits++
		if c.obsHits != nil {
			c.obsHits[domain].Inc()
		}
		return true
	}

	// Miss: fill the permitted range's first empty way, else its LRU way.
	// Empty ways are exactly the zero stamps and every live stamp is
	// positive, so the first minimum is the first empty way if any.
	victim := lo
	for i := lo; i < hi; i++ {
		s := c.stamps[i]
		if s == 0 {
			victim = i
			break
		}
		if s < c.stamps[victim] {
			victim = i
		}
	}
	if c.obsMisses != nil {
		c.obsMisses[domain].Inc()
		// Evictions are charged to the domain losing the line, which is
		// where cross-domain interference shows up under Shared.
		if c.tags[victim] != 0 {
			c.obsEvictions[c.owners[victim]].Inc()
		}
	}
	c.tags[victim] = tw
	c.stamps[victim] = c.tick
	c.owners[victim] = int32(domain)
	c.stats[domain].Misses++
	return false
}

// clear empties way i.
func (c *Cache) clear(i int) {
	c.tags[i], c.stamps[i], c.owners[i] = 0, 0, 0
}

// Contains reports whether pa is resident (without touching LRU state or
// stats) — the observability hook used by prime+probe tests.
func (c *Cache) Contains(pa mem.Addr) bool {
	set, tag := c.locate(pa)
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag|validBit {
			return true
		}
	}
	return false
}

// FlushDomain invalidates every line belonging to domain — the cache-line
// scrub performed by nf_teardown ("The instruction also zeroes out the
// registers and cache lines used by F", §4.6). It returns the number of
// lines flushed.
func (c *Cache) FlushDomain(domain int) int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 && int(c.owners[i]) == domain {
			c.clear(i)
			n++
		}
	}
	return n
}

// ResetStats zeroes the per-domain counters (e.g. after warmup).
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = Stats{}
	}
}

// OccupancyOf returns how many lines domain currently holds.
func (c *Cache) OccupancyOf(domain int) int {
	n := 0
	for i, tw := range c.tags {
		if tw != 0 && int(c.owners[i]) == domain {
			n++
		}
	}
	return n
}
