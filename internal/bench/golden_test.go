package bench

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ncf"
	"repro/internal/prenex"
	"repro/internal/qbf"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenNodeLimit bounds each golden solve by decisions, never by time, so
// the recorded counts do not depend on the machine.
const goldenNodeLimit = 100000

// TestSearchCountsGolden pins the search itself: every ScaleSmoke suite
// instance is solved PO on the tree and TO on its ∃↑∀↑ form, and each
// run's verdict and search counts must equal the golden file. A change
// that means to leave the search alone (a refactor of the engine, a
// faster data structure) must pass unchanged; one that means to change
// it rewrites the file with -update and shows the new counts in its diff.
func TestSearchCountsGolden(t *testing.T) {
	suites := []struct {
		name  string
		insts []Instance
	}{
		{"ncf", NCFSuite(ScaleSmoke)},
		{"fpv", FPVSuite(ScaleSmoke)},
		{"dia", DIASuite(ScaleSmoke)},
		{"prob", EvalSuite(ScaleSmoke, false)},
		{"fixed", EvalSuite(ScaleSmoke, true)},
	}
	var sb strings.Builder
	fmt.Fprintln(&sb, "# suite instance mode verdict decisions conflicts solutions learned_clauses learned_cubes propagations")
	for _, su := range suites {
		for i, inst := range su.insts {
			runs := []struct {
				mode core.Mode
				q    *qbf.QBF
			}{
				{core.ModePartialOrder, inst.Tree},
				{core.ModeTotalOrder, inst.Prenex[prenex.EUpAUp]},
			}
			for _, r := range runs {
				res, err := core.Solve(context.Background(), r.q, core.Options{Mode: r.mode, NodeLimit: goldenNodeLimit})
				if err != nil {
					t.Fatalf("%s %d %s %v: %v", su.name, i, inst.Name, r.mode, err)
				}
				st := res.Stats
				fmt.Fprintf(&sb, "%s %03d:%s %v %v %d %d %d %d %d %d\n",
					su.name, i, inst.Name, r.mode, res.Verdict,
					st.Decisions, st.Conflicts, st.Solutions, st.LearnedClauses, st.LearnedCubes, st.Propagations)
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "search_counts.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("search counts differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}

// shapeNodeLimit bounds each default-scale solve of TestPaperShape by
// decisions, like goldenNodeLimit: no run depends on the machine.
const shapeNodeLimit = 400000

// TestPaperShape holds the search to the shape of two paper results, in
// decisions so that the outcome is the same on every machine:
//   - DIA ("QUBE(TO) is never faster"): PO's total decisions are at most
//     TO's on the ScaleSmoke suite, and on the ScaleDefault suite for each
//     of the dme, ring and semaphore models;
//   - NCF: on the hard corner of the ScaleDefault grid (VAR 16,
//     CLS/VAR ≥ 4, LPC ≥ 4), PO's total stays below TO's.
//
// Counter is left out: root-first branching does not bring PO to TO on
// it. Its φn tree has the same shape as the other models' (an ∃ root over
// a level-1 ∃ leaf and the ∀/∃ chain of steps), so the gap lies in the
// search, not the prefix. On the ScaleDefault suite counter3-φ6 reads PO
// 334,629 and TO 301,603 decisions, and counter3-φ7 stops at the node
// limit in both modes, so the family's total would compare budgets, not
// searches.
func TestPaperShape(t *testing.T) {
	total := func(insts []Instance, mode core.Mode, limit int64) int64 {
		t.Helper()
		var sum int64
		for _, inst := range insts {
			q := inst.Tree
			if mode == core.ModeTotalOrder {
				q = inst.Prenex[prenex.EUpAUp]
			}
			res, err := core.Solve(context.Background(), q, core.Options{Mode: mode, NodeLimit: limit})
			if err != nil {
				t.Fatalf("%s %v: %v", inst.Name, mode, err)
			}
			sum += res.Stats.Decisions
		}
		return sum
	}
	check := func(what string, insts []Instance, limit int64, strict bool) {
		t.Helper()
		if len(insts) == 0 {
			t.Fatalf("%s: no instances", what)
		}
		po := total(insts, core.ModePartialOrder, limit)
		to := total(insts, core.ModeTotalOrder, limit)
		if po > to || strict && po == to {
			t.Errorf("%s: PO takes %d decisions, TO %d", what, po, to)
		} else {
			t.Logf("%s: PO %d, TO %d decisions", what, po, to)
		}
	}

	check("smoke DIA", DIASuite(ScaleSmoke), goldenNodeLimit, false)

	byModel := map[string][]Instance{}
	for _, inst := range DIASuite(ScaleDefault) {
		model := strings.TrimRight(inst.Name[:strings.Index(inst.Name, "-phi")], "0123456789")
		byModel[model] = append(byModel[model], inst)
	}
	for _, model := range []string{"dme", "ring", "semaphore"} {
		check("default DIA "+model, byModel[model], shapeNodeLimit, false)
	}

	var corner []Instance
	for _, cell := range ncf.Grid(ScaleDefault.NCFDep, ScaleDefault.PerCell) {
		p := cell.Params
		if p.Var != 16 || p.Cls < 4*p.Var || p.Lpc < 4 {
			continue
		}
		for k := 0; k < cell.Instances; k++ {
			p.Seed = int64(k)
			corner = append(corner, MakeInstance(p.String(), ncf.Generate(p), prenex.EUpAUp))
		}
	}
	check("NCF hard corner", corner, shapeNodeLimit, true)
}
