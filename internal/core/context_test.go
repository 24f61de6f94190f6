package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/qbf"
)

// phpFormula builds the pigeonhole principle PHP(n+1, n) as an
// all-existential QBF: FALSE, and exponentially hard for resolution, so it
// reliably keeps the search busy for mid-flight governance tests.
func phpFormula(n int) *qbf.QBF {
	pigeons := n + 1
	v := func(p, h int) int { return (p-1)*n + h }
	p := qbf.NewPrefix(pigeons * n)
	var vars []qbf.Var
	for i := 1; i <= pigeons*n; i++ {
		vars = append(vars, qbf.Var(i))
	}
	p.AddBlock(nil, qbf.Exists, vars...)
	var m []qbf.Clause
	for i := 1; i <= pigeons; i++ {
		var row qbf.Clause
		for h := 1; h <= n; h++ {
			row = append(row, qbf.Lit(v(i, h)))
		}
		m = append(m, row)
	}
	for h := 1; h <= n; h++ {
		for i := 1; i <= pigeons; i++ {
			for j := i + 1; j <= pigeons; j++ {
				m = append(m, qbf.Clause{qbf.Lit(-v(i, h)), qbf.Lit(-v(j, h))})
			}
		}
	}
	return qbf.New(p, m)
}

func TestSolveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSolver(phpFormula(4), Options{DisablePureLiterals: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(ctx); r != Unknown {
		t.Fatalf("pre-cancelled solve returned %v", r)
	}
	st := s.Stats()
	if st.StopReason != StopCancelled {
		t.Errorf("stop reason %v, want cancelled", st.StopReason)
	}
	if st.Decisions != 0 {
		t.Errorf("pre-cancelled solve made %d decisions", st.Decisions)
	}
}

func TestSolveContextMidSearchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSolver(phpFormula(10), Options{DisablePureLiterals: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Verdict, 1)
	go func() { done <- s.Solve(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		st := s.Stats()
		if r != Unknown || st.StopReason != StopCancelled {
			// PHP(11,10) needs far more than 50 ms; a decided result here
			// means cancellation never fired.
			t.Fatalf("got %v/%v, want UNKNOWN/cancelled", r, st.StopReason)
		}
		if st.Fixpoints == 0 || st.Decisions == 0 {
			t.Errorf("cancelled mid-search but stats empty: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solver ignored cancellation")
	}
}

func TestContextDeadlineIsTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s, err := NewSolver(phpFormula(10), Options{DisablePureLiterals: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(ctx); r != Unknown {
		t.Fatalf("got %v, want UNKNOWN under a 50ms deadline", r)
	}
	// A context deadline is a time budget: it must surface as a timeout,
	// not as a generic cancellation.
	if st := s.Stats(); st.StopReason != StopTimeout {
		t.Errorf("stop reason %v, want timeout", st.StopReason)
	}
}

func TestNodeLimitStopReason(t *testing.T) {
	rRes, err := Solve(context.Background(), phpFormula(10), Options{NodeLimit: 1, DisablePureLiterals: true})
	r, st := rRes.Verdict, rRes.Stats
	if err != nil {
		t.Fatal(err)
	}
	if r != Unknown || st.StopReason != StopNodeLimit {
		t.Errorf("got %v/%v, want UNKNOWN/node-limit", r, st.StopReason)
	}
}

// TestMemLimitGraceful: a budget large enough to hold a reduced database
// must degrade — aggressive reductions, no stop — and still decide.
func TestMemLimitGraceful(t *testing.T) {
	res, err := Solve(context.Background(), phpFormula(7), Options{
		MemLimit:            64 << 10,
		DisablePureLiterals: true,
	})
	r, st := res.Verdict, res.Stats
	if err != nil {
		t.Fatal(err)
	}
	if r != False {
		t.Fatalf("PHP(8,7) = %v, want FALSE", r)
	}
	if st.StopReason != StopNone {
		t.Errorf("decided run carries stop reason %v", st.StopReason)
	}
	if st.MemReductions == 0 {
		t.Error("64KiB budget on PHP(8,7) never triggered a memory reduction")
	}
}

// TestMemLimitForcedStop: a budget no reduction can reach (one byte —
// the first learned clause is locked as the asserting reason, so the
// aggressive round cannot delete it) must produce a clean mem-limit stop.
func TestMemLimitForcedStop(t *testing.T) {
	res, err := Solve(context.Background(), phpFormula(6), Options{
		MemLimit:            1,
		DisablePureLiterals: true,
	})
	r, st := res.Verdict, res.Stats
	if err != nil {
		t.Fatal(err)
	}
	if r != Unknown || st.StopReason != StopMemLimit {
		t.Errorf("got %v/%v, want UNKNOWN/mem-limit", r, st.StopReason)
	}
	if st.MemReductions == 0 {
		t.Error("forced stop without attempting a reduction first")
	}
}

// TestMemLimitSoundness guards the governance/analysis interaction: the
// memory governor must never delete the constraint whose conflict/solution
// event is still pending — analysis over an emptied working set reads as a
// terminal verdict, i.e. a wrong False/True. So under an aggressively tight
// budget every decided result must still agree with the semantic oracle;
// Unknown with a mem-limit stop is the only allowed degradation.
func TestMemLimitSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	n := 300
	if testing.Short() {
		n = 60
	}
	reduced := 0
	for i := 0; i < n; i++ {
		q := randomPrenexQBF(rng, 12, 24, 6)
		want, ok := qbf.EvalWithBudget(q, 2_000_000)
		if !ok {
			continue
		}
		for _, lim := range []int64{64, 128} {
			rRes, err := Solve(context.Background(), q, Options{MemLimit: lim, DisablePureLiterals: true})
			r, st := rRes.Verdict, rRes.Stats
			if err != nil {
				t.Fatalf("iteration %d (lim=%d): %v\nQBF: %v", i, lim, err, q)
			}
			if st.MemReductions > 0 {
				reduced++
			}
			if r == Unknown {
				if st.StopReason != StopMemLimit {
					t.Errorf("iteration %d (lim=%d): Unknown with stop reason %v, want mem-limit", i, lim, st.StopReason)
				}
				continue
			}
			if (r == True) != want {
				t.Fatalf("iteration %d (lim=%d): got %v want %v (stats %+v)\nQBF: %v",
					i, lim, r, want, st, q)
			}
		}
	}
	if reduced == 0 {
		t.Error("no run ever triggered a memory reduction — the budget is too loose to exercise the governor")
	}
}

func TestSafeSolveNilInput(t *testing.T) {
	rRes, err := SafeSolve(context.Background(), nil, Options{})
	r, st := rRes.Verdict, rRes.Stats
	if r != Unknown {
		t.Errorf("result %v, want UNKNOWN", r)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T (%v), want *PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Error("contained panic has no stack")
	}
	if st.StopReason != StopPanicked {
		t.Errorf("stop reason %v, want panicked", st.StopReason)
	}
}

// TestTimeoutNotStarvedByPropagation guards satellite #1: the deadline used
// to be checked only every 64th decision, so a search dominated by
// propagation and backtracking could overshoot its budget without bound.
// Polling now happens at propagation fixpoints; a 50ms budget must stop
// the solver in a small multiple of that.
func TestTimeoutNotStarvedByPropagation(t *testing.T) {
	s, err := NewSolver(phpFormula(10), Options{
		TimeLimit:           50 * time.Millisecond,
		DisablePureLiterals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r := s.Solve(context.Background())
	elapsed := time.Since(start)
	if r != Unknown || s.Stats().StopReason != StopTimeout {
		t.Fatalf("got %v/%v, want UNKNOWN/timeout", r, s.Stats().StopReason)
	}
	if elapsed > 2*time.Second {
		t.Errorf("50ms budget overshot to %v", elapsed)
	}
}

// TestSolveContextResume drives a solve in node-budget slices via
// SetNodeLimit and checks the resume contract: progress is monotone, the
// sliced verdict matches the unsliced one, and re-calling after the
// verdict returns it immediately without further work.
func TestSolveContextResume(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	resumedOnce := false
	for i := 0; i < 25; i++ {
		q := denseRandomQBF(rng)
		wantRRes, err := Solve(context.Background(), q, Options{Mode: ModePartialOrder})
		wantR := wantRRes.Verdict
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(q, Options{Mode: ModePartialOrder})
		if err != nil {
			t.Fatal(err)
		}
		var r Verdict
		slices := 0
		for {
			s.SetNodeLimit(s.Stats().Decisions + 2)
			r = s.Solve(context.Background())
			slices++
			if r != Unknown {
				break
			}
			if s.Stats().StopReason != StopNodeLimit {
				t.Fatalf("instance %d: sliced solve stopped with %v", i, s.Stats().StopReason)
			}
			if slices > 100000 {
				t.Fatalf("instance %d: no progress across %d slices", i, slices)
			}
		}
		if slices > 1 {
			resumedOnce = true
		}
		if r != wantR {
			t.Fatalf("instance %d: sliced verdict %v != unsliced %v (in %d slices)", i, r, wantR, slices)
		}
		decisions := s.Stats().Decisions
		if again := s.Solve(context.Background()); again != r {
			t.Fatalf("instance %d: post-verdict re-solve returned %v, want %v", i, again, r)
		}
		if s.Stats().Decisions != decisions {
			t.Fatalf("instance %d: post-verdict re-solve did %d more decisions",
				i, s.Stats().Decisions-decisions)
		}
	}
	if !resumedOnce {
		t.Fatal("no instance ever needed more than one 2-decision slice — resume untested")
	}
}

// denseRandomQBF builds a ∃∀∃ model-A-style instance dense enough that
// propagation and pure literals alone cannot decide it — the sliced-resume
// test needs searches spanning many 2-decision slices.
func denseRandomQBF(rng *rand.Rand) *qbf.QBF {
	const bs = 10
	runs := make([]qbf.Run, 3)
	var ex, un []qbf.Var
	v := qbf.MinVar
	for b := 0; b < 3; b++ {
		quant := qbf.Exists
		if b == 1 {
			quant = qbf.Forall
		}
		vars := make([]qbf.Var, bs)
		for j := range vars {
			vars[j] = v
			if quant == qbf.Exists {
				ex = append(ex, v)
			} else {
				un = append(un, v)
			}
			v++
		}
		runs[b] = qbf.Run{Quant: quant, Vars: vars}
	}
	prefix := qbf.NewPrenexPrefix(int(v)-1, runs...)
	var matrix []qbf.Clause
	for len(matrix) < 6*3*bs {
		seen := map[qbf.Var]bool{}
		var c qbf.Clause
		add := func(pool []qbf.Var) {
			vv := pool[rng.Intn(len(pool))]
			if seen[vv] {
				return
			}
			seen[vv] = true
			l := vv.PosLit()
			if rng.Intn(2) == 0 {
				l = vv.NegLit()
			}
			c = append(c, l)
		}
		if rng.Intn(2) == 0 {
			add(un)
		}
		for len(c) < 5 {
			add(ex)
		}
		cc, taut := c.Normalize()
		if !taut {
			matrix = append(matrix, cc)
		}
	}
	return qbf.New(prefix, matrix)
}
