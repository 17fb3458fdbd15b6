package ac

import (
	"fmt"
	"sort"
	"sync"
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

// sameWalks runs Scan on both automata, into a nil dst and after a
// sentinel already in dst, and demands the same matches in the same
// order. It returns the lane count Scan split input into.
func sameWalks(t *testing.T, a *Automaton, ref *refAutomaton, input []byte) int {
	t.Helper()
	got, want := a.Scan(input, nil), ref.Scan(input, nil)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan(%q) = %v, ref %v", input, got, want)
	}
	sentinel := Match{Pattern: -1, End: -1}
	got = a.Scan(input, []Match{sentinel})
	if got[0] != sentinel || fmt.Sprint(got[1:]) != fmt.Sprint(want) {
		t.Fatalf("Scan(%q) after a sentinel = %v, ref %v", input, got, want)
	}
	var cut [scanLanes + 1]int
	lanes := a.laneCuts(input, &cut)
	for k := 1; k <= lanes; k++ {
		if cut[k] <= cut[k-1] && len(input) > 0 {
			t.Fatalf("lane %d of %d is empty: cuts %v over %d bytes", k-1, lanes, cut[:lanes+1], len(input))
		}
		if k < lanes && a.classOf[input[cut[k]-1]] != 0 {
			t.Fatalf("cut %d at %d follows byte %#x of class %d", k, cut[k], input[cut[k]-1], a.classOf[input[cut[k]-1]])
		}
	}
	return lanes
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

// text returns an input of about n printable bytes with copies of
// random patterns and a CRLF every 20–100 bytes, so the only bytes in no
// printable-pattern set are sparse.
func text(rng *sim.Rand, patterns [][]byte, n int) []byte {
	input := make([]byte, 0, n+64)
	line := 20 + rng.Intn(81)
	for len(input) < n {
		switch {
		case line <= 0:
			input = append(input, '\r', '\n')
			line = 20 + rng.Intn(81)
		case len(patterns) > 0 && rng.Intn(12) == 0:
			p := patterns[rng.Intn(len(patterns))]
			input = append(input, p...)
			line -= len(p)
		default:
			input = append(input, byte(0x20+rng.Intn(95)))
			line--
		}
	}
	return input
}

// planted returns an input of n bytes whose only class-0 bytes sit
// where Scan cuts its lanes. At each nominal cut k·n/4 a pattern ends
// just before a reset byte and the next pattern starts just after it,
// so one lane's last match ends at the cut and the next lane's first
// match starts there. When straddle is set, the reset byte sits up to
// 2·cutWindow bytes later, so the first pattern often covers the
// nominal position and the cut is sometimes out of the search window.
// The filler is pattern bytes. It returns nil when the set uses all or
// none of the 256 byte values.
func planted(rng *sim.Rand, a *Automaton, patterns [][]byte, n int, straddle bool) []byte {
	var reset, fill []byte
	for b := 0; b < 256; b++ {
		if a.classOf[b] == 0 {
			reset = append(reset, byte(b))
		} else {
			fill = append(fill, byte(b))
		}
	}
	if len(reset) == 0 || len(fill) == 0 {
		return nil
	}
	input := make([]byte, n)
	for i := range input {
		input[i] = fill[rng.Intn(len(fill))]
	}
	for k := 1; k < scanLanes; k++ {
		p := patterns[rng.Intn(len(patterns))]
		j := k * n / scanLanes // where p ends and the reset byte sits
		if straddle {
			j += rng.Intn(2 * cutWindow)
		}
		if j >= n {
			break
		}
		copy(input[max(j-len(p), 0):j], p[max(len(p)-j, 0):])
		input[j] = reset[rng.Intn(len(reset))]
		copy(input[j+1:], patterns[rng.Intn(len(patterns))])
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
	var lanes [scanLanes + 1]int
	for i := 0; i < 100; i++ {
		lanes[sameWalks(t, a, ref, spliced(rng, patterns, 1+rng.Intn(1600)))]++
		lanes[sameWalks(t, a, ref, text(rng, patterns, 1+rng.Intn(1600)))]++
		n := minLaneBytes + rng.Intn(1600-minLaneBytes)
		lanes[sameWalks(t, a, ref, planted(rng, a, patterns, n, false))]++
		lanes[sameWalks(t, a, ref, planted(rng, a, patterns, n, true))]++
	}
	for k := 1; k <= scanLanes; k++ {
		if lanes[k] == 0 {
			t.Errorf("no input split into %d lanes: %v", k, lanes[1:])
		}
	}
}

// Random sets: alphabets from one byte value to all 256 (2 to 257
// classes), binary bytes, short patterns so the trie branches and
// failure links chain, and deliberate duplicates. Every 32nd set adds a
// pattern of all 256 byte values, so no byte is class 0 and Scan walks
// one lane.
func TestCompileMatchesReferenceRandomSets(t *testing.T) {
	rng := sim.NewRand(3)
	var lanes [scanLanes + 1]int
	full := false
	for set := 0; set < 320; set++ {
		var patterns [][]byte
		if set%32 == 31 {
			all := make([]byte, 256)
			for i := range all {
				all[i] = byte(i)
			}
			patterns = append(patterns, all)
		}
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
		full = full || a.Classes() == 257
		for _, p := range patterns {
			sameWalks(t, a, ref, p)
		}
		for i := 0; i < 4; i++ {
			lanes[sameWalks(t, a, ref, spliced(rng, patterns, rng.Intn(1600)))]++
		}
		lanes[sameWalks(t, a, ref, text(rng, patterns, rng.Intn(1600)))]++
		if set > 0 {
			n := minLaneBytes + rng.Intn(1600-minLaneBytes)
			if in := planted(rng, a, patterns, n, rng.Intn(2) == 0); in != nil {
				lanes[sameWalks(t, a, ref, in)]++
			}
		}
	}
	for k := 1; k <= scanLanes; k++ {
		if lanes[k] == 0 {
			t.Errorf("no input split into %d lanes: %v", k, lanes[1:])
		}
	}
	if !full {
		t.Error("no set used all 256 byte values")
	}
}

// Scan's lane cuts rely on class 0: whenever some byte is in no pattern,
// its entry in every row is the root with no match bit.
func TestCompileClassZeroResetsToRoot(t *testing.T) {
	rng := sim.NewRand(4)
	sets := [][][]byte{trace.DPIPatterns(sim.NewRand(1), 2000)}
	for i := 0; i < 64; i++ {
		sets = append(sets, trace.DPIPatterns(rng, 1+rng.Intn(40)))
		bin := make([][]byte, 1+rng.Intn(30))
		for j := range bin {
			bin[j] = make([]byte, 1+rng.Intn(12))
			rng.Bytes(bin[j])
		}
		sets = append(sets, bin)
	}
	checked := 0
	for _, patterns := range sets {
		a, err := Compile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if a.Classes() > 256 {
			continue
		}
		checked++
		for row := 0; row < len(a.next); row += a.nclasses {
			if e := a.next[row]; e != 0 {
				t.Fatalf("state %d: class-0 entry %#x, want 0", row/a.nclasses, e)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no set left a byte in class 0")
	}
}

func TestScanDoesNotAllocate(t *testing.T) {
	rng := sim.DeriveRand(0xAC, "alloc-regression")
	patterns := trace.DPIPatterns(rng, 2000)
	a, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	// Spliced inputs match in several lanes, so the stable sort runs too.
	inputs := make([][]byte, 64)
	for i := range inputs {
		inputs[i] = spliced(rng, patterns, 1+rng.Intn(1600))
	}
	dst := make([]Match, 0, 4096)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		dst = a.Scan(inputs[i%len(inputs)], dst[:0])
		i++
	}); avg != 0 {
		t.Errorf("Scan allocates %.1f times per call, want 0", avg)
	}
}

// Scan keeps its lanes in locals, so one automaton serves concurrent
// scans; run with -race.
func TestScanConcurrent(t *testing.T) {
	rng := sim.NewRand(6)
	patterns := trace.DPIPatterns(rng, 500)
	a, err := Compile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refCompile(patterns)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 32)
	want := make([]string, len(inputs))
	for i := range inputs {
		inputs[i] = spliced(rng, patterns, 1+rng.Intn(1600))
		want[i] = fmt.Sprint(ref.Scan(inputs[i], nil))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []Match
			for r := 0; r < 8; r++ {
				for i := range inputs {
					j := (i + g*7) % len(inputs)
					if dst = a.Scan(inputs[j], dst[:0]); fmt.Sprint(dst) != want[j] {
						t.Errorf("goroutine %d: Scan of input %d = %v, ref %s", g, j, dst, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzCase encodes a pattern set and an input the way FuzzScan decodes
// them: a pattern count byte, then per pattern a length-1 byte and its
// bytes, then the input.
func fuzzCase(patterns [][]byte, input []byte) []byte {
	b := []byte{byte(len(patterns) - 1)}
	for _, p := range patterns {
		b = append(b, byte(len(p)-1))
		b = append(b, p...)
	}
	return append(b, input...)
}

// FuzzScan decodes up to 16 patterns of 1–64 bytes and an input from the
// fuzz bytes, and demands Scan's matches, in order, from the reference
// automaton's single-lane walk.
func FuzzScan(f *testing.F) {
	rng := sim.NewRand(5)
	for i := 0; i < 8; i++ {
		patterns := trace.DPIPatterns(rng, 1+rng.Intn(16))
		f.Add(fuzzCase(patterns, spliced(rng, patterns, rng.Intn(1600))))
		f.Add(fuzzCase(patterns, text(rng, patterns, rng.Intn(1600))))
	}
	f.Add(fuzzCase([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")}, []byte("ushers")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		patterns := make([][]byte, 0, 16)
		count := 1 + int(data[0])%16
		data = data[1:]
		for len(patterns) < count && len(data) > 0 {
			l := 1 + int(data[0])%64
			if len(data) < 1+l {
				break
			}
			patterns = append(patterns, data[1:1+l])
			data = data[1+l:]
		}
		a, err := Compile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refCompile(patterns)
		if err != nil {
			t.Fatal(err)
		}
		sameWalks(t, a, ref, data)
	})
}
