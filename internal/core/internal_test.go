package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/qbf"
)

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestQuickMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{9, 1, 7, 3, 5}, 5},
		{[]float64{2, 2, 2, 2}, 2},
		{[]float64{4, 1, 3, 2}, 3}, // k = len/2 = 2 → third smallest
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := quickMedian(in); got != c.want {
			t.Errorf("quickMedian(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestLitIdx pins the literal code: 2v for +v, 2v+1 for ¬v, the
// complement one bit away, and a lossless round trip through enc and lit.
func TestLitIdx(t *testing.T) {
	if enc(3) != 6 || enc(-3) != 7 {
		t.Error("literal code mapping broken")
	}
	for _, n := range []int{1, -1, 2, -2, 1 << 26, -(1 << 26), 1<<31 - 1, -(1<<31 - 1)} {
		l := qbf.LitOf(n)
		c := enc(l)
		if c.lit() != l || c^1 != enc(l.Neg()) || c.v() != uint32(l.Var()) {
			t.Errorf("literal %d: code %d decodes to %d, complement %d, variable %d", l, c, c.lit(), c^1, c.v())
		}
	}
}

// TestReduceDBKeepsAnswers: a tiny learned-constraint cap must not change
// results, only effort.
func TestReduceDBKeepsAnswers(t *testing.T) {
	q := hardishQBF()
	baseRes, err := Solve(context.Background(), q, Options{})
	base := baseRes.Verdict
	if err != nil {
		t.Fatal(err)
	}
	cappedRes, err := Solve(context.Background(), q, Options{MaxLearned: 8})
	capped, st := cappedRes.Verdict, cappedRes.Stats
	if err != nil {
		t.Fatal(err)
	}
	if capped != base {
		t.Fatalf("MaxLearned=8 changed the answer: %v vs %v", capped, base)
	}
	_ = st
}

// TestRestartsPreserveAnswer compares a solver that restarts aggressively
// (tiny restartUnit via many learning events) against the baseline.
func TestRestartsPreserveAnswer(t *testing.T) {
	q := hardishQBF()
	r1Res, err := Solve(context.Background(), q, Options{})
	r1, st1 := r1Res.Verdict, r1Res.Stats
	if err != nil {
		t.Fatal(err)
	}
	// With learning disabled no restarts can trigger (they are gated on
	// learning events), so the search is a pure flip-DFS.
	r2Res, err := Solve(context.Background(), q, Options{DisableClauseLearning: true, DisableCubeLearning: true})
	r2, st2 := r2Res.Verdict, r2Res.Stats
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("results differ: %v vs %v", r1, r2)
	}
	if st2.Restarts != 0 {
		t.Errorf("no-learning run restarted %d times", st2.Restarts)
	}
	_ = st1
}

// hardishQBF builds a 2-alternation formula needing real search.
func hardishQBF() *qbf.QBF {
	p := qbf.NewPrenexPrefix(12,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2, 3, 4}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{5, 6}},
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{7, 8, 9, 10, 11, 12}})
	m := []qbf.Clause{
		{1, 2, 7}, {-1, 3, 8}, {-2, -3, 9}, {4, -7, 10},
		{5, 7, -8}, {-5, 8, -9}, {6, 9, -10}, {-6, 10, 11},
		{5, -6, 12}, {-5, 6, -11}, {-4, -12, 7}, {1, -9, -11},
		{-7, -10, 12}, {2, -8, 11}, {-3, 9, -12},
	}
	return qbf.New(p, m)
}

func TestTimeLimitRespected(t *testing.T) {
	// A formula family the solver cannot finish instantly: random-ish
	// 3-alternation; ensure a 1ns limit yields Unknown quickly.
	q := hardishQBF()
	start := time.Now()
	rRes, err := Solve(context.Background(), q, Options{TimeLimit: time.Nanosecond})
	r := rRes.Verdict
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("limit ignored: ran %v", d)
	}
	// The instance may still solve within the first 64 decisions (the
	// limit-check stride), so both Unknown and a decided result are legal;
	// a decided result must then match the unlimited run.
	if r != Unknown {
		fullRes, _ := Solve(context.Background(), q, Options{})
		full := fullRes.Verdict
		if r != full {
			t.Fatalf("limited run decided %v but full run %v", r, full)
		}
	}
}

func TestSolverReuseForbidden(t *testing.T) {
	// Solve must be callable once per Solver; a second call continues from
	// a terminal state and must return the same answer immediately for
	// trivial formulas.
	p := qbf.NewPrenexPrefix(1, qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1}})
	q := qbf.New(p, []qbf.Clause{{1}})
	s, err := NewSolver(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(context.Background()); r != True {
		t.Fatalf("first solve: %v", r)
	}
}

func TestStatsAccumulate(t *testing.T) {
	q := hardishQBF()
	s, err := NewSolver(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve(context.Background())
	st := s.Stats()
	if st.Time <= 0 {
		t.Error("Time not recorded")
	}
	if st.Decisions == 0 && st.Propagations == 0 {
		t.Error("no work recorded")
	}
	if st.MaxDecisionLevel == 0 && st.Decisions > 0 {
		t.Error("MaxDecisionLevel not tracked")
	}
}

func TestNewSolverRejectsBadInput(t *testing.T) {
	// Scope-inconsistent: a clause spanning incomparable subtrees.
	p := qbf.NewPrefix(5)
	r := p.AddBlock(nil, qbf.Exists, 1)
	a := p.AddBlock(r, qbf.Forall, 2)
	p.AddBlock(a, qbf.Exists, 3)
	b := p.AddBlock(r, qbf.Forall, 4)
	p.AddBlock(b, qbf.Exists, 5)
	bad := qbf.New(p, []qbf.Clause{{3, 5}})
	if _, err := NewSolver(bad, Options{}); err == nil {
		t.Error("scope-inconsistent input must be rejected")
	}
	// Invalid literal.
	p2 := qbf.NewPrenexPrefix(1, qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1}})
	invalid := &qbf.QBF{Prefix: p2, Matrix: []qbf.Clause{{0}}}
	if _, err := NewSolver(invalid, Options{}); err == nil {
		t.Error("literal 0 must be rejected")
	}
}
