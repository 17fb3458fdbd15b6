package ac

import (
	"fmt"
	"sort"
	"testing"

	"snic/internal/sim"
	"snic/internal/trace"
)

// refAutomaton is the map-based compiler the dense-row Compile replaced,
// kept verbatim as the oracle: per-node child maps, sorted-children BFS
// failure links, and a phase-3 dense table of plain state indices with a
// separate out-list check per byte. The property tests below compile the
// same pattern sets with both and demand the same automaton, decoded.
type refAutomaton struct {
	classOf  [256]uint16
	nclasses int
	next     []int32
	out      [][]int32
}

func refCompile(patterns [][]byte) (*refAutomaton, error) {
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ac: pattern %d is empty", i)
		}
	}
	a := &refAutomaton{}
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

	type node struct {
		children map[uint16]int32 // by class
		fail     int32
		out      []int32
	}
	nodes := []*node{{children: map[uint16]int32{}}}
	// Phase 1: trie over classes.
	for pi, p := range patterns {
		cur := int32(0)
		for _, b := range p {
			cl := a.classOf[b]
			nxt, ok := nodes[cur].children[cl]
			if !ok {
				nxt = int32(len(nodes))
				nodes = append(nodes, &node{children: map[uint16]int32{}})
				nodes[cur].children[cl] = nxt
			}
			cur = nxt
		}
		nodes[cur].out = append(nodes[cur].out, int32(pi))
	}
	// Phase 2: BFS failure links.
	sortedChildren := func(n *node) []uint16 {
		cls := make([]uint16, 0, len(n.children))
		for cl := range n.children {
			cls = append(cls, cl)
		}
		sort.Slice(cls, func(i, j int) bool { return cls[i] < cls[j] })
		return cls
	}
	queue := make([]int32, 0, len(nodes))
	for _, cl := range sortedChildren(nodes[0]) {
		c := nodes[0].children[cl]
		nodes[c].fail = 0
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, cl := range sortedChildren(nodes[u]) {
			v := nodes[u].children[cl]
			queue = append(queue, v)
			f := nodes[u].fail
			for {
				if w, ok := nodes[f].children[cl]; ok && w != v {
					nodes[v].fail = w
					break
				}
				if f == 0 {
					if w, ok := nodes[0].children[cl]; ok && w != v {
						nodes[v].fail = w
					} else {
						nodes[v].fail = 0
					}
					break
				}
				f = nodes[f].fail
			}
			nodes[v].out = append(nodes[v].out, nodes[nodes[v].fail].out...)
		}
	}
	// Phase 3: dense goto table over classes with failures resolved.
	a.next = make([]int32, len(nodes)*nc)
	a.out = make([][]int32, len(nodes))
	order := append([]int32{0}, queue...)
	for _, s := range order {
		n := nodes[s]
		a.out[s] = n.out
		row := int(s) * nc
		for cl := 0; cl < nc; cl++ {
			if c, ok := n.children[uint16(cl)]; ok {
				a.next[row+cl] = c
			} else if s == 0 {
				a.next[cl] = 0
			} else {
				a.next[row+cl] = a.next[int(n.fail)*nc+cl]
			}
		}
	}
	return a, nil
}

func (a *refAutomaton) MemoryBytes() uint64 {
	n := uint64(len(a.next))*4 + 256*2
	for _, o := range a.out {
		n += 8 + uint64(len(o))*4
	}
	return n
}

func (a *refAutomaton) Scan(input []byte, dst []Match) []Match {
	s := int32(0)
	nc := a.nclasses
	for i, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
		if outs := a.out[s]; len(outs) > 0 {
			for _, p := range outs {
				dst = append(dst, Match{Pattern: int(p), End: i + 1})
			}
		}
	}
	return dst
}

func (a *refAutomaton) Contains(input []byte) bool {
	s := int32(0)
	nc := a.nclasses
	for _, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
		if len(a.out[s]) > 0 {
			return true
		}
	}
	return false
}

func (a *refAutomaton) StateWalk(input []byte) (visited int, final int32) {
	s := int32(0)
	nc := a.nclasses
	for _, b := range input {
		s = a.next[int(s)*nc+int(a.classOf[b])]
	}
	return len(input), s
}

// sameAutomaton compares a against the reference compile of patterns:
// byte classes, every goto entry decoded to a target state (which must
// sit on a row boundary), its match bit, every out list, and the
// modelled footprint.
func sameAutomaton(t *testing.T, a *Automaton, ref *refAutomaton) {
	t.Helper()
	if a.classOf != ref.classOf || a.Classes() != ref.nclasses {
		t.Fatalf("byte classes differ: %d vs %d classes", a.Classes(), ref.nclasses)
	}
	if a.States() != len(ref.out) || len(a.next) != len(ref.next) {
		t.Fatalf("shape: %d states / %d entries, ref %d / %d",
			a.States(), len(a.next), len(ref.out), len(ref.next))
	}
	nc := int32(a.nclasses)
	for i, e := range a.next {
		off := e &^ matchBit
		if off%nc != 0 || off/nc != ref.next[i] {
			t.Fatalf("next[%d] = %#x decodes to state %d (row remainder %d), ref %d",
				i, e, off/nc, off%nc, ref.next[i])
		}
		if match := e < 0; match != (len(ref.out[ref.next[i]]) > 0) {
			t.Fatalf("next[%d] match bit %v, ref out list %v", i, match, ref.out[ref.next[i]])
		}
	}
	for s := range ref.out {
		if fmt.Sprint(a.out[s]) != fmt.Sprint(ref.out[s]) {
			t.Fatalf("out[%d] = %v, ref %v", s, a.out[s], ref.out[s])
		}
	}
	if a.MemoryBytes() != ref.MemoryBytes() {
		t.Fatalf("MemoryBytes = %d, ref %d", a.MemoryBytes(), ref.MemoryBytes())
	}
}

// sameWalks runs Scan, Contains and StateWalk on both automata.
func sameWalks(t *testing.T, a *Automaton, ref *refAutomaton, input []byte) {
	t.Helper()
	got, want := a.Scan(input, nil), ref.Scan(input, nil)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan(%q) = %v, ref %v", input, got, want)
	}
	if a.Contains(input) != ref.Contains(input) {
		t.Fatalf("Contains(%q) = %v, ref %v", input, a.Contains(input), ref.Contains(input))
	}
	gn, gs := a.StateWalk(input)
	wn, ws := ref.StateWalk(input)
	if gn != wn || gs != ws {
		t.Fatalf("StateWalk(%q) = %d,%d, ref %d,%d", input, gn, gs, wn, ws)
	}
}

// spliced returns an input of n bytes mixing random bytes with copies of
// random patterns, so scans hit both matches and failure transitions.
func spliced(rng *sim.Rand, patterns [][]byte, n int) []byte {
	input := make([]byte, 0, n+64)
	for len(input) < n {
		if len(patterns) > 0 && rng.Intn(3) == 0 {
			input = append(input, patterns[rng.Intn(len(patterns))]...)
			continue
		}
		var b [1]byte
		rng.Bytes(b[:])
		input = append(input, b[0])
	}
	return input
}

func TestCompileMatchesReferenceDPIRuleset(t *testing.T) {
	patterns := trace.DPIPatterns(sim.NewRand(1), 8000)
	a, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCompile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	sameAutomaton(t, a, ref)
	rng := sim.NewRand(2)
	for i := 0; i < 50; i++ {
		sameWalks(t, a, ref, spliced(rng, patterns, 1+rng.Intn(1500)))
	}
}

// Random sets: alphabets from one byte value to all 256 (2 to 257
// classes), binary bytes, short patterns so the trie branches and
// failure links chain, and deliberate duplicates.
func TestCompileMatchesReferenceRandomSets(t *testing.T) {
	rng := sim.NewRand(3)
	for set := 0; set < 320; set++ {
		var patterns [][]byte
		if set > 0 { // set 0 is the empty pattern set: one class, one state
			alpha := 1 + rng.Intn(256)
			base := rng.Intn(256)
			n := 1 + rng.Intn(60)
			for i := 0; i < n; i++ {
				if i > 0 && rng.Intn(6) == 0 {
					patterns = append(patterns, patterns[rng.Intn(i)])
					continue
				}
				p := make([]byte, 1+rng.Intn(10))
				for j := range p {
					p[j] = byte(base + rng.Intn(alpha))
				}
				patterns = append(patterns, p)
			}
		}
		a, err := Compile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refCompile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		sameAutomaton(t, a, ref)
		for _, p := range patterns {
			sameWalks(t, a, ref, p)
		}
		for i := 0; i < 4; i++ {
			sameWalks(t, a, ref, spliced(rng, patterns, rng.Intn(400)))
		}
	}
}
