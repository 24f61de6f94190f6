package dia

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/qbf"
)

// TestIncrementalDiameterMatchesOneShot pins the incremental ladder against
// both the one-shot PO driver and explicit BFS: same diameter, and the same
// verdict at every intermediate step. The incremental session runs with
// invariant checking on, so frame bookkeeping is deep-checked at every
// propagation fixpoint under -tags qbfdebug. Summed over the models, the
// ladder may cost at most 1.5x the one-shot decisions: the prefix built
// once for maxN makes the early steps a little dearer, but a blowup means
// per-Solve heuristic state leaked across steps.
func TestIncrementalDiameterMatchesOneShot(t *testing.T) {
	const maxLadderRatio = 1.5
	cases := []*models.Model{
		models.Counter(2),
		models.Semaphore(1),
		models.Semaphore(2),
		models.Ring(3),
		models.TwoBit(),
	}
	if !testing.Short() {
		cases = append(cases, models.DME(2))
	}
	var oneDecs, incDecs int64
	for _, m := range cases {
		bfs, err := models.ExplicitDiameter(m, 12)
		if err != nil {
			t.Fatal(err)
		}
		maxN := bfs + 2
		one := ComputeDiameter(m, maxN, SolverPO(context.Background(), core.Options{}))
		inc, err := ComputeDiameterIncremental(context.Background(), m, maxN,
			core.Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: incremental: %v", m.Name, err)
		}
		if !inc.Decided || inc.Diameter != bfs {
			t.Errorf("%s: incremental diameter %v (decided %v), BFS %d",
				m.Name, inc.Diameter, inc.Decided, bfs)
		}
		if len(inc.Steps) != len(one.Steps) {
			t.Fatalf("%s: incremental took %d steps, one-shot %d",
				m.Name, len(inc.Steps), len(one.Steps))
		}
		for i, st := range inc.Steps {
			if st.Result != one.Steps[i].Result {
				t.Errorf("%s φ%d: incremental says %v, one-shot says %v",
					m.Name, st.N, st.Result, one.Steps[i].Result)
			}
			incDecs += st.Stats.Decisions
			oneDecs += one.Steps[i].Stats.Decisions
		}
	}
	if ratio := float64(incDecs) / float64(oneDecs); ratio > maxLadderRatio {
		t.Errorf("ladders took %d incremental vs %d one-shot decisions (%.2fx, limit %.1fx)",
			incDecs, oneDecs, ratio, maxLadderRatio)
	}
	t.Logf("ladder decisions: %d incremental, %d one-shot", incDecs, oneDecs)
}

// TestVariantSweepBeatsOneShot is the variant sweep of "Incremental QBF
// Solving" (Lonsing & Egly): a session solves a ladder step φk, then
// re-solves it under each root-block literal via push/assume/solve/pop.
// Every verdict must equal a fresh one-shot solve of φk plus that unit
// clause, and since all of φk's learning sits at frame 0 and survives
// every pop, the session must need fewer decisions in total than the
// one-shot solves. Decision counts are deterministic, so the comparison
// is exact rather than timed.
func TestVariantSweepBeatsOneShot(t *testing.T) {
	bases := []struct {
		m *models.Model
		k int
	}{
		{models.Counter(3), 4},
		{models.Semaphore(3), 2},
		{models.DME(2), 1},
		{models.DME(2), 2},
	}
	if testing.Short() {
		bases = bases[1:] // counter3 φ4 is the slowest base
	}
	ctx := context.Background()
	opt := core.Options{Mode: core.ModePartialOrder}
	var oneDecs, incDecs int64
	for _, b := range bases {
		base, err := StepInstance(b.m, b.k)
		if err != nil {
			t.Fatal(err)
		}
		incOpt := opt
		incOpt.Incremental = true
		s, err := core.NewSolver(base, incOpt)
		if err != nil {
			t.Fatal(err)
		}
		solveOne := func(q *qbf.QBF) core.Verdict {
			t.Helper()
			res, err := core.Solve(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			oneDecs += res.Stats.Decisions
			return res.Verdict
		}
		if got, want := s.Solve(ctx), solveOne(base); got != want || got == core.Unknown {
			t.Fatalf("%s φ%d: session says %v, one-shot says %v", b.m.Name, b.k, got, want)
		}
		for _, v := range base.Prefix.Blocks()[0].Vars {
			for _, l := range []qbf.Lit{v.PosLit(), v.NegLit()} {
				if _, err := s.Push(); err != nil {
					t.Fatal(err)
				}
				if err := s.Assume(l); err != nil {
					t.Fatal(err)
				}
				got := s.Solve(ctx)
				if _, err := s.Pop(); err != nil {
					t.Fatal(err)
				}
				variant := qbf.New(base.Prefix, append(append([]qbf.Clause{}, base.Matrix...), qbf.Clause{l}))
				if want := solveOne(variant); got != want || got == core.Unknown {
					t.Fatalf("%s φ%d assuming %v: session says %v, one-shot says %v",
						b.m.Name, b.k, l, got, want)
				}
			}
		}
		incDecs += s.Stats().Decisions
	}
	if oneDecs <= incDecs {
		t.Errorf("sweep took %d one-shot vs %d incremental decisions; surviving lemmas must pay",
			oneDecs, incDecs)
	}
	t.Logf("sweep decisions: %d one-shot, %d incremental (%.2fx)",
		oneDecs, incDecs, float64(oneDecs)/float64(incDecs))
}

// TestIncrementalDiameterBudget mirrors the one-shot budget behavior: an
// exhausted maxN leaves the result undecided with one step per n, and an
// exhausted node budget surfaces as an undecided result, not an error.
func TestIncrementalDiameterBudget(t *testing.T) {
	r, err := ComputeDiameterIncremental(context.Background(), models.Counter(3), 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decided {
		t.Error("maxN=2 cannot decide counter3 (diameter 7)")
	}
	if len(r.Steps) != 3 {
		t.Errorf("got %d steps, want 3", len(r.Steps))
	}

	limited, err := ComputeDiameterIncremental(context.Background(), models.Counter(4), 20,
		core.Options{NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Decided {
		t.Error("NodeLimit=1 must not decide counter4")
	}
}

// TestIncrementalDiameterCancel: a cancelled context stops the ladder
// between steps with an undecided result.
func TestIncrementalDiameterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := ComputeDiameterIncremental(ctx, models.Counter(2), 5, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decided {
		t.Error("cancelled computation must not decide")
	}
}
