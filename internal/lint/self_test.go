package lint

import (
	"os"
	"testing"
)

// TestModuleIsClean runs the full check registry against the real
// module and asserts zero unwaived diagnostics. This is the invariant
// gate itself, exercised by `go test ./...`, so the build stays honest
// even where CI configuration drifts: a refactor that reintroduces
// wall-clock reads, map-ordered output, factory bypasses, literal
// seeds, or an external import fails the ordinary test run.
func TestModuleIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("snic", root)
	pkgs, err := loader.LoadPatterns(nil) // ./...
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded only %d packages; discovery is broken", len(pkgs))
	}
	diags := Run(loader.Fset, pkgs, Registry())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d unwaived finding(s); fix them or add //lint:allow <check> <reason> at the site", len(diags))
	}

	// The waiver budget: suppressions in production code are debt, and
	// the interprocedural checks exist to shrink it, not grow it. Every
	// waiver that survives here is also known-used (the stale-waiver
	// detector above would have flagged it otherwise).
	known := make(map[string]bool)
	for _, c := range Registry() {
		known[c.Name()] = true
	}
	production := 0
	for _, p := range pkgs {
		ws, _ := parseWaivers(loader.Fset, p, known)
		for _, w := range ws {
			if !w.test {
				production++
				t.Logf("production waiver: %s [%s]", w.pos, w.check)
			}
		}
	}
	const waiverBudget = 8
	if production >= waiverBudget {
		t.Errorf("%d production waivers, budget is < %d: fix violations instead of waiving them", production, waiverBudget)
	}

	// The dead-code budget: production functions no binary reaches (see
	// unreached for the roots). What remains is paper mechanisms awaiting
	// an experiment and verifier/test-reference API (DESIGN.md "Enforced
	// invariants"); like the waiver budget, it may only go down.
	dead, lines := unreached(loader.Fset, pkgs), 0
	for _, d := range dead {
		lines += d.lines
		t.Logf("unreached: %s (%s:%d, %d lines)", d.node.Name, d.node.Pos.Filename, d.node.Pos.Line, d.lines)
	}
	t.Logf("%d unreached production functions, %d lines", len(dead), lines)
	const deadCodeBudget = 141
	if len(dead) > deadCodeBudget {
		t.Errorf("%d unreached production functions, budget is %d: wire new code into a binary or delete it", len(dead), deadCodeBudget)
	}
}
