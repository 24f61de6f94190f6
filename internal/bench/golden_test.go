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
