package dia

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/qbf"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestSessionCountsGolden pins session search exactly, one line per Solve:
// every step of the incremental ladder on each of ladderModels (maxN two
// past the BFS diameter, as in TestIncrementalDiameterMatchesOneShot), and
// for each variant-sweep base the base solve, then each push/assume/
// solve/pop on a root-block literal, as in TestVariantSweepBeatsOneShot.
// Each line holds the verdict and that Solve's search counts. A change to
// the session code that means to leave the search alone must pass
// unchanged; one that means to change it rewrites the file with -update
// and shows the new counts in its diff.
func TestSessionCountsGolden(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	fmt.Fprintln(&sb, "# run instance solve verdict decisions conflicts solutions learned_clauses learned_cubes propagations")
	line := func(run, inst, solve string, v core.Verdict, st core.Stats) {
		fmt.Fprintf(&sb, "%s %s %s %v %d %d %d %d %d %d\n", run, inst, solve, v,
			st.Decisions, st.Conflicts, st.Solutions, st.LearnedClauses, st.LearnedCubes, st.Propagations)
	}

	for _, m := range ladderModels() {
		bfs, err := models.ExplicitDiameter(m, 12)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ComputeDiameterIncremental(ctx, m, bfs+2, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, st := range r.Steps {
			line("ladder", m.Name, fmt.Sprintf("n=%d", st.N), st.Result, st.Stats)
		}
	}

	for _, b := range sweepBases() {
		base, err := StepInstance(b.m, b.k)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSolver(base, core.Options{Mode: core.ModePartialOrder, Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		inst := fmt.Sprintf("%s-phi%d", b.m.Name, b.k)
		var prev core.Stats
		solve := func(what string) {
			v := s.Solve(ctx)
			cur := s.Stats()
			line("sweep", inst, what, v, statsDelta(cur, prev))
			prev = cur
		}
		solve("base")
		for _, v := range base.Prefix.Blocks()[0].Vars {
			for _, l := range []qbf.Lit{v.PosLit(), v.NegLit()} {
				if _, err := s.Push(); err != nil {
					t.Fatal(err)
				}
				if err := s.Assume(l); err != nil {
					t.Fatal(err)
				}
				solve(fmt.Sprintf("assume=%d", l))
				if _, err := s.Pop(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	got := sb.String()
	path := filepath.Join("testdata", "session_counts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("session counts differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
