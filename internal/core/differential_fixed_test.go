package core_test

// Differential over the fixed suite. The random trees and
// pigeonhole formulas of the in-package differential layer never produced
// the shape that broke the first watcher implementation: a clause whose
// only existential sits behind several universals of the same prenex block
// (randqbf.Fixed(5), a prenexed diameter instance). There the repair step
// parked both watches on true universals; backtracking past the satisfier
// revived the falsified existential with no watch covering it, and its
// next falsification was a silent conflict — caught as a watcher-invariant
// panic under qbfdebug, and a potential wrong verdict without it. This
// suite pins those instances across option combos, straight and through
// the node-budget resume path that sessions use to budget each solve call.
// It lives in package core_test because randqbf imports core.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/randqbf"
)

func TestFixedSuiteDifferential(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	combos := []core.Options{
		{Mode: core.ModePartialOrder},
		{Mode: core.ModePartialOrder, DisableCubeLearning: true},
		{Mode: core.ModePartialOrder, MaxLearned: 16},
		{Mode: core.ModeTotalOrder},
	}
	for i, q := range randqbf.FixedSuite(n) {
		want := core.Unknown
		for ci, opt := range combos {
			if opt.DisableCubeLearning && i >= 6 {
				// Without cube learning some of the later TRUE instances
				// need hours; the regression trigger (Fixed(5), po-nocube)
				// sits inside the kept range.
				continue
			}
			opt.CheckInvariants = true
			res, err := core.Solve(context.Background(), q, opt)
			if err != nil {
				t.Fatalf("instance %d combo %d: %v", i, ci, err)
			}
			if res.Verdict == core.Unknown {
				t.Fatalf("instance %d combo %d: Unknown (stop %v)",
					i, ci, res.Stats.StopReason)
			}
			if want == core.Unknown {
				want = res.Verdict
			} else if res.Verdict != want {
				t.Fatalf("instance %d combo %d: verdict %v, siblings said %v",
					i, ci, res.Verdict, want)
			}
		}
	}
	// No semantic-oracle pass here: EvalWithBudget burns minutes per
	// 100+-variable instance, and the configurations above already
	// cross-check each other; the random-instance differential suites keep
	// the oracle on formulas small enough to evaluate.
}

// TestFixedSliceResume replays the session node-budget path — solve in
// 64-decision slices, raising the node budget with SetNodeLimit between
// calls — on the fixed suite, and cross-checks the sliced verdict against
// a straight solve. The watcher tables must survive arbitrarily many
// suspensions at quiescent fixpoints.
func TestFixedSliceResume(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 3
	}
	for i, q := range randqbf.FixedSuite(n) {
		res, err := core.Solve(context.Background(), q, core.Options{
			Mode:                core.ModePartialOrder,
			DisableCubeLearning: i%2 == 1,
			CheckInvariants:     true,
		})
		if err != nil || res.Verdict == core.Unknown {
			t.Fatalf("instance %d straight solve: verdict %v err %v", i, res.Verdict, err)
		}
		s, err := core.NewSolver(q, core.Options{
			Mode:                core.ModePartialOrder,
			DisableCubeLearning: i%2 == 1,
			CheckInvariants:     true,
		})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		v := core.Unknown
		for slice := 1; slice <= 4096 && v == core.Unknown; slice++ {
			s.SetNodeLimit(int64(slice) * 64)
			v = s.Solve(context.Background())
		}
		if v == core.Unknown {
			t.Fatalf("instance %d: still Unknown after 4096 slices", i)
		}
		if v != res.Verdict {
			t.Fatalf("instance %d: sliced verdict %v, straight solve said %v", i, v, res.Verdict)
		}
	}
}
