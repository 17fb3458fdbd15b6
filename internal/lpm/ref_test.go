package lpm

import (
	"fmt"
	"testing"

	"snic/internal/sim"
	"snic/internal/trace"
)

// refTable is the three-array TBL24 the packed 4-byte entry replaced,
// kept verbatim as the oracle: a direct next hop, a direct depth and a
// pool index per /24 (7 B per entry), with the pool index set to -1 by
// an init loop in newRefTable. The property test below builds both from
// the same route sets and demands identical lookups and sizes.
type refTable struct {
	nh24    []uint16 // direct next hop per /24 (valid if depth24 > 0)
	depth24 []uint8  // 0 = no direct route; else prefix length + 1
	pool24  []int32  // index into pools, or -1
	pools   [][]poolEntry
	routes  map[uint64]uint16 // key: prefix<<8 | length
}

func newRefTable() *refTable {
	t := &refTable{
		nh24:    make([]uint16, tbl24Size),
		depth24: make([]uint8, tbl24Size),
		pool24:  make([]int32, tbl24Size),
		routes:  make(map[uint64]uint16),
	}
	for i := range t.pool24 {
		t.pool24[i] = -1
	}
	return t
}

func (t *refTable) Insert(prefix uint32, length int, nexthop uint16) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	prefix &= prefixMask(length)
	t.routes[uint64(prefix)<<8|uint64(length)] = nexthop
	t.apply(prefix, length, nexthop)
	return nil
}

func (t *refTable) apply(prefix uint32, length int, nh uint16) {
	d := uint8(length + 1)
	if length <= 24 {
		span := 1 << (24 - length)
		start := int(prefix >> 8)
		for i := start; i < start+span; i++ {
			if t.depth24[i] <= d {
				t.nh24[i] = nh
				t.depth24[i] = d
			}
			if p := t.pool24[i]; p >= 0 {
				pool := t.pools[p]
				for j := range pool {
					if pool[j].depth <= d {
						pool[j] = poolEntry{nh: nh, depth: d}
					}
				}
			}
		}
		return
	}
	idx := int(prefix >> 8)
	p := t.pool24[idx]
	if p < 0 {
		// Materialize a pool inheriting the current direct route.
		pool := make([]poolEntry, 256)
		if t.depth24[idx] > 0 {
			for j := range pool {
				pool[j] = poolEntry{nh: t.nh24[idx], depth: t.depth24[idx]}
			}
		}
		t.pools = append(t.pools, pool)
		p = int32(len(t.pools) - 1)
		t.pool24[idx] = p
	}
	pool := t.pools[p]
	span := 1 << (32 - length)
	start := int(prefix & 0xFF)
	for j := start; j < start+span; j++ {
		if pool[j].depth <= d {
			pool[j] = poolEntry{nh: nh, depth: d}
		}
	}
}

func (t *refTable) Lookup(addr uint32) (uint16, bool) {
	idx := addr >> 8
	if p := t.pool24[idx]; p >= 0 {
		e := t.pools[p][addr&0xFF]
		if e.depth == 0 {
			return 0, false
		}
		return e.nh, true
	}
	if t.depth24[idx] == 0 {
		return 0, false
	}
	return t.nh24[idx], true
}

func (t *refTable) Len() int { return len(t.routes) }

func (t *refTable) MemoryBytes() uint64 {
	return uint64(tbl24Size)*EntryBytes +
		uint64(len(t.pools))*256*EntryBytes +
		uint64(len(t.routes))*16
}

// clusteredRoutes draws n routes of length 12..32 inside four /8s, with
// repeated prefixes carrying new next hops, so short routes land on
// /24s that already have pools and re-inserts overwrite.
func clusteredRoutes(rng *sim.Rand, n int) []trace.Route {
	out := make([]trace.Route, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(10) == 0 {
			r := out[rng.Intn(len(out))]
			r.NextHop = uint16(rng.Intn(1 << 16))
			out = append(out, r)
			continue
		}
		length := 12 + rng.Intn(21)
		prefix := (uint32(10+rng.Intn(4))<<24 | rng.Uint32()&0x00FFFFFF) & prefixMask(length)
		out = append(out, trace.Route{Prefix: prefix, Length: length, NextHop: uint16(rng.Intn(1 << 16))})
	}
	return out
}

func TestTableMatchesReference(t *testing.T) {
	sets := [][]trace.Route{
		trace.Routes(sim.NewRand(1), 16000),
		trace.Routes(sim.NewRand(2), 16000),
		clusteredRoutes(sim.NewRand(3), 16000),
		clusteredRoutes(sim.NewRand(4), 16000),
	}
	for si, routes := range sets {
		tbl, ref := New(), newRefTable()
		rng := sim.NewRand(uint64(100 + si))
		check := func(addr uint32) {
			gotNH, gotOK := tbl.Lookup(addr)
			wantNH, wantOK := ref.Lookup(addr)
			if gotNH != wantNH || gotOK != wantOK {
				t.Fatalf("set %d: Lookup(%08x) = %d,%v, ref %d,%v", si, addr, gotNH, gotOK, wantNH, wantOK)
			}
		}
		for i, r := range routes {
			if err := tbl.Insert(r.Prefix, r.Length, r.NextHop); err != nil {
				t.Fatal(err)
			}
			if err := ref.Insert(r.Prefix, r.Length, r.NextHop); err != nil {
				t.Fatal(err)
			}
			if i%1000 == 999 { // spot-check while the table fills
				for j := 0; j < 1000; j++ {
					check(rng.Uint32())
				}
			}
		}
		for i := uint32(0); i < tbl24Size; i++ {
			check(i<<8 | rng.Uint32()&0xFF)
		}
		for j := 0; j < 100000; j++ {
			check(uint32(10+rng.Intn(4))<<24 | rng.Uint32()&0x00FFFFFF)
		}
		if tbl.Len() != ref.Len() || tbl.MemoryBytes() != ref.MemoryBytes() {
			t.Fatalf("set %d: Len/MemoryBytes = %d/%d, ref %d/%d",
				si, tbl.Len(), tbl.MemoryBytes(), ref.Len(), ref.MemoryBytes())
		}
	}
}
