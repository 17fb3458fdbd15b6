// Package ac implements the Aho–Corasick multi-pattern string-matching
// automaton [Aho & Corasick, CACM 1975] from scratch. It is the matching
// engine behind both the DPI network function (§5.1, which the paper backs
// with the aho_corasick Rust crate) and the DPI hardware accelerator
// (§4.3, a "regular-expression engine" that walks a finite-automata graph
// stored in DRAM).
//
// The automaton is a trie with breadth-first failure links, flattened into
// a dense goto table with *byte-class compression*: every byte value that
// appears in no pattern behaves identically from every state, so the
// alphabet collapses to (distinct pattern bytes + 1) classes. This is the
// same trick production matchers (and the Rust crate's DFA) use, and it is
// what keeps the 33 K-rule graph near the ~100 MB the paper reports in
// Table 7 rather than the ~0.5 GB a raw 256-way table would need.
//
// Class 0 (bytes in no pattern) resets: its goto entry is the root, with
// no match bit, in every row. Scan relies on it to walk an input as up
// to four lanes in lockstep, giving the host core four independent
// chains of table loads instead of one. Lanes are cut only just after a
// class-0 byte, where the sequential walk is at the root, so each lane
// starts in the sequential walk's state and the lanes together report
// exactly its matches, restored to input order.
package ac

import (
	"fmt"
	"slices"
)

// matchBit flags a goto-table entry whose target state has a non-empty
// output list. It is the sign bit of the int32 entry, so the scan loop
// tests for a match with one compare and reads out only on a hit.
const matchBit = -1 << 31

// maxTable bounds the goto table so that every row offset fits below
// matchBit in an int32 entry.
const maxTable = 1<<31 - 1

// Automaton is a compiled pattern set.
type Automaton struct {
	// classOf maps a byte to its equivalence class.
	classOf [256]uint16
	// nclasses is the number of byte classes.
	nclasses int
	// next[state*nclasses+class] is the goto function with failure links
	// pre-resolved, so matching never backtracks. An entry holds the
	// target's row offset (target*nclasses), so the next lookup needs no
	// multiply, with matchBit set when out[target] is non-empty.
	next []int32
	// out[state] lists pattern indices terminating at state.
	out [][]int32
}

// Match reports one pattern occurrence.
type Match struct {
	Pattern int // index into the compiled pattern list
	End     int // byte offset one past the match in the scanned input
}

// tableBound returns the goto-table length the compiler preallocates:
// the trie has at most patternBytes+1 states, each with one row of
// nclasses entries. It fails when that bound does not fit an int32 row
// offset below matchBit.
func tableBound(patternBytes, nclasses int) (int, error) {
	if patternBytes+1 > maxTable/nclasses {
		return 0, fmt.Errorf("ac: %d pattern bytes over %d byte classes overflow the goto table", patternBytes, nclasses)
	}
	return (patternBytes + 1) * nclasses, nil
}

// Compile builds the automaton for the given patterns. Empty patterns are
// rejected; duplicate patterns are allowed (each gets its own index).
func Compile(patterns [][]byte) (*Automaton, error) {
	total := 0
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ac: pattern %d is empty", i)
		}
		total += len(p)
	}
	a := &Automaton{}
	// Byte classes: class 0 = "appears in no pattern"; each distinct
	// pattern byte gets its own class.
	used := [256]bool{}
	for _, p := range patterns {
		for _, b := range p {
			used[b] = true
		}
	}
	nc := 1
	for b := 0; b < 256; b++ {
		if used[b] {
			a.classOf[b] = uint16(nc)
			nc++
		}
	}
	a.nclasses = nc
	bound, err := tableBound(total, nc)
	if err != nil {
		return nil, err
	}

	// Phase 1: trie over classes, one dense row per state. An entry is
	// the child's row offset, or 0 for no child (the root is nobody's
	// child). The table is allocated at its bound once, so rows are
	// appended without copying.
	next := make([]int32, nc, bound)
	out := [][]int32{nil}
	for pi, p := range patterns {
		row := 0
		for _, b := range p {
			i := row + int(a.classOf[b])
			if next[i] == 0 {
				next[i] = int32(len(next))
				next = next[:len(next)+nc]
				out = append(out, nil)
			}
			row = int(next[i])
		}
		out[row/nc] = append(out[row/nc], int32(pi))
	}

	// Phase 2: BFS failure links, resolved in place. Children are visited
	// in ascending class order so the queue — and with it the out-list
	// concatenation order — is a pure function of the pattern set. A row
	// is complete once its state is dequeued: a trie child v of u gets
	// fail[v] = next[fail[u]][cl], and every other entry of u's row
	// becomes next[fail[u]][cl]. Failure states are shallower than u, so
	// their rows are already complete, match bits included.
	flag := func(off int32) int32 {
		if len(out[int(off)/nc]) > 0 {
			return off | matchBit
		}
		return off
	}
	fail := make([]int32, len(out)) // failure state's row offset, per state
	queue := make([]int32, 0, len(out))
	for cl := 0; cl < nc; cl++ {
		if v := next[cl]; v != 0 {
			queue = append(queue, v)
			next[cl] = flag(v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := int(queue[qi])
		f := int(fail[u/nc])
		for cl := 0; cl < nc; cl++ {
			v := next[u+cl]
			if v == 0 {
				next[u+cl] = next[f+cl]
				continue
			}
			fv := next[f+cl] &^ matchBit
			vs := int(v) / nc
			fail[vs] = fv
			out[vs] = append(out[vs], out[int(fv)/nc]...)
			queue = append(queue, v)
			next[u+cl] = flag(v)
		}
	}
	a.next = next
	a.out = out
	return a, nil
}

// States returns the number of automaton states.
func (a *Automaton) States() int { return len(a.out) }

// Classes returns the number of byte equivalence classes.
func (a *Automaton) Classes() int { return a.nclasses }

// MemoryBytes estimates the DRAM footprint of the flattened graph: the
// class-compressed transition table, the byte-class map, and the output
// lists. This is the "Graph" entry of Table 7.
func (a *Automaton) MemoryBytes() uint64 {
	n := uint64(len(a.next))*4 + 256*2
	for _, o := range a.out {
		n += 8 + uint64(len(o))*4
	}
	return n
}

// Scan's lane split: up to scanLanes lanes; inputs shorter than
// minLaneBytes walk as one lane; each cut is searched for in the
// cutWindow bytes after its nominal k·n/scanLanes position.
const (
	scanLanes    = 4
	minLaneBytes = 128
	cutWindow    = 64
)

// Scan runs the automaton over input, appending matches to dst (which may
// be nil) and returning it, in input order: by End, and for one End in
// out-list order. The traversal touches one table row per input byte —
// the access pattern the DPI accelerator model charges DRAM bandwidth
// for. Scan is safe for concurrent use.
//
// When all three cuts are found, the four lanes walk in lockstep up to
// the shortest lane's length and each lane then finishes alone;
// otherwise there are no lockstep iterations and the lanes, fewer than
// four, walk one after another. Matches from more than one lane are
// stable-sorted by End back into input order.
func (a *Automaton) Scan(input []byte, dst []Match) []Match {
	next, classOf := a.next, &a.classOf
	var cut [scanLanes + 1]int
	lanes := a.laneCuts(input, &cut)
	start, hits := len(dst), 0 // hits bit k: lane k has matched
	var e [scanLanes]int32     // lane states
	m := 0                     // lockstep steps
	if lanes == scanLanes {
		m = min(cut[1]-cut[0], cut[2]-cut[1], cut[3]-cut[2], cut[4]-cut[3])
		s0, s1, s2, s3 := input[cut[0]:][:m], input[cut[1]:][:m], input[cut[2]:][:m], input[cut[3]:][:m]
		for i := 0; ; i++ {
			i, e[0], e[1], e[2], e[3] = lockstep(next, classOf, s0, s1, s2, s3, i, e[0], e[1], e[2], e[3])
			if i == m {
				break
			}
			for k, ek := range e {
				if ek < 0 {
					dst = a.appendOut(dst, ek, cut[k]+i+1)
					hits |= 1 << k
				}
			}
		}
	}
	for k := range lanes {
		s, ek := input[cut[k]+m:cut[k+1]], e[k]
		for i := 0; ; i++ {
			if i, ek = walk(next, classOf, s, i, ek); i == len(s) {
				break
			}
			dst = a.appendOut(dst, ek, cut[k]+m+i+1)
			hits |= 1 << k
		}
	}
	if hits&(hits-1) != 0 {
		slices.SortStableFunc(dst[start:], func(x, y Match) int { return x.End - y.End })
	}
	return dst
}

// lockstep advances four lanes of equal length from step i, in states
// e0..e3, until a step leaves some lane in a match state. It returns
// that step, or len(s0) if none does, and the states there. It holds no
// call, so the states stay in registers.
func lockstep(next []int32, classOf *[256]uint16, s0, s1, s2, s3 []byte, i int, e0, e1, e2, e3 int32) (int, int32, int32, int32, int32) {
	s1, s2, s3 = s1[:len(s0)], s2[:len(s0)], s3[:len(s0)]
	for ; i < len(s0); i++ {
		e0 = next[int(e0&^matchBit)+int(classOf[s0[i]])]
		e1 = next[int(e1&^matchBit)+int(classOf[s1[i]])]
		e2 = next[int(e2&^matchBit)+int(classOf[s2[i]])]
		e3 = next[int(e3&^matchBit)+int(classOf[s3[i]])]
		if e0|e1|e2|e3 < 0 {
			break
		}
	}
	return i, e0, e1, e2, e3
}

// walk is lockstep for one lane: it advances s from step i in state e
// until a step reaches a match state, and returns that step, or len(s),
// and the state there.
func walk(next []int32, classOf *[256]uint16, s []byte, i int, e int32) (int, int32) {
	for ; i < len(s); i++ {
		e = next[int(e&^matchBit)+int(classOf[s[i]])]
		if e < 0 {
			break
		}
	}
	return i, e
}

// laneCuts splits input for Scan into lanes, filling the zeroed cut so
// that lane k covers input[cut[k]:cut[k+1]], and returns their count.
// Every cut after the first follows a class-0 byte, and only an empty
// input has an empty lane. cut is filled in place rather than returned,
// so Scan reads it back without a stalled store-to-load copy.
func (a *Automaton) laneCuts(input []byte, cut *[scanLanes + 1]int) int {
	n := len(input)
	lanes := 1
	if n >= minLaneBytes && a.nclasses <= 256 { // some byte is class 0
		for k := 1; k < scanLanes; k++ {
			lo := max(k*n/scanLanes, cut[lanes-1])
			for j := lo; j < min(lo+cutWindow, n-1); j++ {
				if a.classOf[input[j]] == 0 {
					cut[lanes] = j + 1
					lanes++
					break
				}
			}
		}
	}
	cut[lanes] = n
	return lanes
}

// appendOut appends one Match ending at end for each pattern in the out
// list of e's target state.
func (a *Automaton) appendOut(dst []Match, e int32, end int) []Match {
	for _, p := range a.out[int(e&^matchBit)/a.nclasses] {
		dst = append(dst, Match{Pattern: int(p), End: end})
	}
	return dst
}
