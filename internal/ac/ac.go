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
package ac

import "fmt"

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

// Scan runs the automaton over input, appending matches to dst (which may
// be nil) and returning it. The traversal touches one table row per input
// byte — the access pattern the DPI accelerator model charges DRAM
// bandwidth for.
func (a *Automaton) Scan(input []byte, dst []Match) []Match {
	next, classOf := a.next, &a.classOf
	e := int32(0)
	for i, b := range input {
		e = next[int(e&^matchBit)+int(classOf[b])]
		if e < 0 {
			for _, p := range a.out[int(e&^matchBit)/a.nclasses] {
				dst = append(dst, Match{Pattern: int(p), End: i + 1})
			}
		}
	}
	return dst
}

// Contains reports whether any pattern occurs in input (early exit).
func (a *Automaton) Contains(input []byte) bool {
	next, classOf := a.next, &a.classOf
	e := int32(0)
	for _, b := range input {
		e = next[int(e&^matchBit)+int(classOf[b])]
		if e < 0 {
			return true
		}
	}
	return false
}

// StateWalk returns the state sequence length (equal to len(input)) and
// final state; used by the accelerator model to meter graph-cache traffic
// deterministically without allocating matches.
func (a *Automaton) StateWalk(input []byte) (visited int, final int32) {
	next, classOf := a.next, &a.classOf
	e := int32(0)
	for _, b := range input {
		e = next[int(e&^matchBit)+int(classOf[b])]
	}
	return len(input), (e &^ matchBit) / int32(a.nclasses)
}
