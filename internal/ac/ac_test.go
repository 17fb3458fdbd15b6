package ac

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"snic/internal/sim"
)

func compile(t *testing.T, pats ...string) *Automaton {
	t.Helper()
	bs := make([][]byte, len(pats))
	for i, p := range pats {
		bs[i] = []byte(p)
	}
	a, err := Compile(bs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func ends(ms []Match) []int {
	var out []int
	for _, m := range ms {
		out = append(out, m.End)
	}
	sort.Ints(out)
	return out
}

func TestSimpleMatch(t *testing.T) {
	a := compile(t, "he", "she", "his", "hers")
	ms := a.Scan([]byte("ushers"), nil)
	// Classic AC example: "she" at 4, "he" at 4, "hers" at 6.
	if len(ms) != 3 {
		t.Fatalf("matches = %+v", ms)
	}
	got := ends(ms)
	want := []int{4, 4, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ends = %v, want %v", got, want)
		}
	}
}

func TestNoMatch(t *testing.T) {
	a := compile(t, "virus", "exploit")
	if ms := a.Scan([]byte("innocuous payload"), nil); len(ms) != 0 {
		t.Fatalf("false positive: %+v", ms)
	}
	if ms := a.Scan([]byte("clean"), nil); len(ms) != 0 {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestOverlappingPatterns(t *testing.T) {
	a := compile(t, "aa", "aaa")
	ms := a.Scan([]byte("aaaa"), nil)
	// "aa" ends at 2,3,4; "aaa" ends at 3,4 => 5 matches.
	if len(ms) != 5 {
		t.Fatalf("got %d matches: %+v", len(ms), ms)
	}
}

func TestPatternIndexReported(t *testing.T) {
	a := compile(t, "foo", "bar")
	ms := a.Scan([]byte("xbar"), nil)
	if len(ms) != 1 || ms[0].Pattern != 1 || ms[0].End != 4 {
		t.Fatalf("ms = %+v", ms)
	}
}

func TestDuplicatePatterns(t *testing.T) {
	a := compile(t, "dup", "dup")
	ms := a.Scan([]byte("dup"), nil)
	if len(ms) != 2 {
		t.Fatalf("duplicate patterns reported %d matches", len(ms))
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := Compile([][]byte{[]byte("ok"), {}}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

// The goto table stores row offsets below the int32 sign bit, so the
// compiler refuses a pattern set whose preallocation bound would wrap
// instead of building a corrupt table.
func TestTableBoundOverflow(t *testing.T) {
	for _, nc := range []int{1, 2, 96, 257} {
		fit := maxTable/nc - 1 // largest pattern-byte total that fits
		n, err := tableBound(fit, nc)
		if err != nil {
			t.Fatalf("tableBound(%d, %d): %v", fit, nc, err)
		}
		if n != (fit+1)*nc || n > maxTable || int32(n-nc)&matchBit != 0 {
			t.Fatalf("tableBound(%d, %d) = %d: last row offset reaches the match bit", fit, nc, n)
		}
		if _, err := tableBound(fit+1, nc); err == nil {
			t.Fatalf("tableBound(%d, %d) accepted a table of %d entries", fit+1, nc, (fit+2)*nc)
		}
	}
	// 16 M pattern bytes over 129 classes is 2.2 G entries.
	if _, err := tableBound(16<<20, 129); err == nil {
		t.Fatal("2^31-entry table accepted")
	}
}

func TestBinaryPatterns(t *testing.T) {
	a, err := Compile([][]byte{{0x00, 0xFF, 0x00}, {0xDE, 0xAD}})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte{1, 0x00, 0xFF, 0x00, 2, 0xDE, 0xAD}
	ms := a.Scan(input, nil)
	if len(ms) != 2 {
		t.Fatalf("binary matches = %+v", ms)
	}
}

func TestMemoryBytesGrowsWithRules(t *testing.T) {
	small := compile(t, "a")
	big := compile(t, "abcdefgh", "ijklmnop", "qrstuvwx")
	if big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatal("graph memory not monotone in rule volume")
	}
	if small.States() != 2 {
		t.Fatalf("states = %d", small.States())
	}
}

// naiveFind is the reference oracle: brute-force all occurrences.
func naiveFind(patterns [][]byte, input []byte) []int {
	var out []int
	for _, p := range patterns {
		for i := 0; i+len(p) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(p)], p) {
				out = append(out, i+len(p))
			}
		}
	}
	sort.Ints(out)
	return out
}

// Property: the automaton agrees with brute force on random inputs over a
// small alphabet (small alphabets maximize overlap/failure-link stress).
func TestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		nPat := 1 + rng.Intn(8)
		patterns := make([][]byte, nPat)
		for i := range patterns {
			p := make([]byte, 1+rng.Intn(5))
			for j := range p {
				p[j] = byte('a' + rng.Intn(3))
			}
			patterns[i] = p
		}
		input := make([]byte, rng.Intn(200))
		for i := range input {
			input[i] = byte('a' + rng.Intn(3))
		}
		a, err := Compile(patterns)
		if err != nil {
			return false
		}
		got := ends(a.Scan(input, nil))
		want := naiveFind(patterns, input)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScan1KBPayload(b *testing.B) {
	rng := sim.NewRand(1)
	patterns := make([][]byte, 1000)
	for i := range patterns {
		p := make([]byte, 8+rng.Intn(24))
		rng.Bytes(p)
		patterns[i] = p
	}
	a, err := Compile(patterns)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	rng.Bytes(payload)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Scan(payload, nil)
	}
}

func TestByteClasses(t *testing.T) {
	a := compile(t, "ab", "ba")
	// Two distinct pattern bytes + 1 unused class.
	if a.Classes() != 3 {
		t.Fatalf("classes = %d", a.Classes())
	}
	// Unused bytes share class 0 and never advance the automaton.
	if ms := a.Scan([]byte("zzzz"), nil); len(ms) != 0 {
		t.Fatalf("unused bytes matched: %+v", ms)
	}
	if ms := a.Scan([]byte("zzabzz"), nil); len(ms) != 1 || ms[0].End != 4 {
		t.Fatalf("match amid unused bytes: %+v", ms)
	}
}

func TestClassCompressionShrinksGraph(t *testing.T) {
	// Patterns over 4 distinct bytes: class-compressed table must be far
	// smaller than 256 columns per state.
	a := compile(t, "abcd", "bcda", "cdab")
	rawCols := uint64(a.States()) * 256 * 4
	if a.MemoryBytes() >= rawCols/8 {
		t.Fatalf("graph %d bytes vs raw %d: compression ineffective", a.MemoryBytes(), rawCols)
	}
}
