package exp

import (
	"fmt"

	"snic/internal/attacks"
	"snic/internal/device"
	"snic/internal/engine"
	"snic/internal/sim"
)

// AttackCol is one device model's column of the attack×device outcome
// matrix: the full suite run against a freshly built instance.
type AttackCol struct {
	Model   string
	Results []attacks.Result
}

// AttackMatrix decomposes the sweep into one engine job per model; each
// job builds its own device through the factory, so columns are
// independent and deterministic no matter which worker runs them.
func (r *Runner) AttackMatrix() ([]AttackCol, error) {
	models := device.Models()
	jobs := make([]engine.Job[AttackCol], len(models))
	for i, m := range models {
		jobs[i] = engine.Job[AttackCol]{
			Experiment: "attacks",
			Key:        m,
			Run: func(*sim.Rand) (AttackCol, error) {
				dev, err := device.New(device.Spec{Model: m, Cores: 4, MemBytes: 16 << 20})
				if err != nil {
					return AttackCol{}, err
				}
				res, err := attacks.RunAll(dev)
				if err != nil {
					return AttackCol{}, err
				}
				return AttackCol{Model: m, Results: res}, nil
			},
		}
	}
	return runJobs(r, 0xA77C, jobs)
}

// RenderAttackMatrix formats the outcome matrix: one row per attack,
// one column per model, EXPOSED where the attack achieved its goal.
func RenderAttackMatrix(cols []AttackCol) Table {
	t := Table{
		Title:  "Attack outcomes across device models (§3 attacks vs §4 defenses)",
		Header: []string{"attack", "blocked by"},
	}
	for _, c := range cols {
		t.Header = append(t.Header, c.Model)
	}
	suite := attacks.Suite()
	exposed := 0
	for i, a := range suite {
		row := []string{a.Name, a.Exploits.String()}
		for _, c := range cols {
			cell := "blocked"
			if i < len(c.Results) && c.Results[i].Succeeded {
				cell = "EXPOSED"
				exposed++
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d attacks × %d device models; EXPOSED = attack achieved its goal (%d cells).",
			len(suite), len(cols), exposed),
		"Each attack succeeds iff its prerequisites exist and the blocking defense is absent.",
	)
	return t
}
