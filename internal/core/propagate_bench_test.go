package core

import (
	"testing"

	"repro/internal/qbf"
)

// BenchmarkPropagate isolates the propagation fixpoint loop, away from
// learning and analysis: each iteration makes one decision on a fresh
// level of a pigeonhole instance, runs propagateAll to its fixpoint (a
// cascade of unit assignments and watcher maintenance over hundreds of
// clauses), and backtracks to the root. Run with -benchmem: the
// //qbf:hotpath annotations on the watch-walk functions promise a
// heap-clean inner loop, which the lint L13 gate verifies statically and
// this benchmark confirms dynamically.
func BenchmarkPropagate(b *testing.B) {
	q := phpFormula(10)
	s, err := NewSolver(q, Options{
		DisableClauseLearning: true,
		DisableCubeLearning:   true,
		DisablePureLiterals:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Decide pigeon p into hole p (the diagonal): no two decisions clash
	// directly, and every one fires ~10 exclusivity units, each of which
	// shrinks further rows — a deep cascade per decision. Conflicts, if the
	// cascade reaches one, just end the round early.
	var decisions []qbf.Lit
	for v := qbf.Var(1); v.Int() <= s.nVars && len(decisions) < 8; v += 11 {
		decisions = append(decisions, v.PosLit())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range decisions {
			if s.val[enc(d)] != undef {
				continue
			}
			s.decide(enc(d))
			if ev, _ := s.propagateAll(); ev == evConflict {
				break
			}
		}
		s.backtrack(0)
	}
}
