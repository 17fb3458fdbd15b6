package exp

import (
	"testing"

	"snic/internal/attacks"
)

func TestAttackMatrixGolden(t *testing.T) {
	cols, err := (&Runner{}).AttackMatrix()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "attacks", RenderAttackMatrix(cols).String())
}

// TestAttackMatrixSemantics pins the two headline claims the matrix
// exists to demonstrate: S-NIC blocks the whole suite, and every attack
// lands on at least one commodity baseline.
func TestAttackMatrixSemantics(t *testing.T) {
	cols, err := (&Runner{}).AttackMatrix()
	if err != nil {
		t.Fatal(err)
	}
	suite := attacks.Suite()
	landed := make(map[string]bool)
	for _, c := range cols {
		if len(c.Results) != len(suite) {
			t.Fatalf("%s: %d results for %d attacks", c.Model, len(c.Results), len(suite))
		}
		for i, r := range c.Results {
			if c.Model == "snic" && r.Succeeded {
				t.Errorf("%s succeeded against S-NIC: %s", r.Name, r.Detail)
			}
			if c.Model != "snic" && r.Succeeded {
				landed[suite[i].Name] = true
			}
		}
	}
	for _, a := range suite {
		if !landed[a.Name] {
			t.Errorf("%s blocked on every baseline", a.Name)
		}
	}
}

func TestFig5aGolden(t *testing.T) {
	rows, err := (&Runner{}).Figure5a(smallFig5(), []uint64{64 << 10, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5a", RenderFig5("Figure 5a: IPC degradation vs L2 size (2 NFs)", rows).String())
}

func TestFig5bGolden(t *testing.T) {
	rows, err := (&Runner{}).Figure5b(smallFig5(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig5b", RenderFig5("Figure 5b: IPC degradation vs co-tenancy (4MB L2)", rows).String())
}
