// Package lpm implements DIR-24-8 longest-prefix matching [Gupta, Lin &
// McKeown, INFOCOM 1998] — the route-lookup structure inside the paper's
// LPM network function (§5.1). The classic layout:
//
//   - TBL24: 2^24 entries indexed by the top 24 address bits, holding
//     either a direct next hop or a pointer into a TBL8 pool.
//   - TBL8 pools: 256-entry second-level tables for prefixes longer
//     than /24.
//
// Inserts use the standard depth-tracking discipline (an entry written by
// a /n route is only overwritten by a route with length >= n), so inserts
// are incremental and order-independent. Deletes rebuild from the retained
// route set — rare in router workloads and trivially correct.
//
// The 2^24 x 4 B base table is 64 MB, which is what gives the LPM NF its
// ~68 MB heap in Table 6.
package lpm

import (
	"fmt"
)

const tbl24Size = 1 << 24

// Table is a DIR-24-8 lookup table. NextHop values are 16-bit.
type Table struct {
	nh24    []uint16 // direct next hop per /24 (valid if depth24 > 0)
	depth24 []uint8  // 0 = no direct route; else prefix length + 1
	pool24  []int32  // index into pools, or -1
	pools   [][]poolEntry
	routes  map[uint64]uint16 // key: prefix<<8 | length
}

type poolEntry struct {
	nh    uint16
	depth uint8 // 0 = empty; else prefix length + 1
}

// New returns an empty table.
func New() *Table {
	t := &Table{
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

// Insert adds a route for prefix/length -> nexthop. Longest prefix wins on
// lookup. Re-inserting a prefix overwrites its next hop.
func (t *Table) Insert(prefix uint32, length int, nexthop uint16) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	prefix &= prefixMask(length)
	t.routes[uint64(prefix)<<8|uint64(length)] = nexthop
	t.apply(prefix, length, nexthop)
	return nil
}

func (t *Table) apply(prefix uint32, length int, nh uint16) {
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

// Lookup returns the next hop for addr and whether any route matched. The
// fast path is one memory access; /25+ prefixes take two — the property
// DIR-24-8 was designed around.
func (t *Table) Lookup(addr uint32) (uint16, bool) {
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

// Len returns the number of installed routes.
func (t *Table) Len() int { return len(t.routes) }

// EntryBytes is the modelled per-TBL24-entry size. The paper's LPM NF
// stores 4 B per entry (64 MB base table; ~68 MB total heap in Table 6).
const EntryBytes = 4

// MemoryBytes reports the structure's modelled DRAM footprint.
func (t *Table) MemoryBytes() uint64 {
	return uint64(tbl24Size)*EntryBytes +
		uint64(len(t.pools))*256*EntryBytes +
		uint64(len(t.routes))*16
}

func prefixMask(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}
