package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lineartest"
	"repro/internal/qbf"
)

// Metamorphic suite for the incremental session lifecycle. The session
// contract is: after any sequence of Push/Pop/AddClause/Assume, Solve must
// return the verdict of the formula "base matrix ∧ every clause added at a
// currently open depth" under the session's fixed prefix. Each random
// script checks that relation at every Solve step against a fresh
// from-scratch solver over the equivalent formula — and, when the formula
// is small enough to evaluate, against the exponential semantic oracle.
// scripts/check.sh runs this file under -race and under -tags qbfdebug,
// where every fixpoint additionally recomputes the frame invariants
// (deepcheck checkFrames).

// scriptState tracks the clauses the session ought to be equivalent to:
// one clause set per open depth (index 0 = permanent adds).
type scriptState struct {
	base   *qbf.QBF
	stack  [][]qbf.Clause
	bound  []qbf.Var // variables usable in added clauses
	solves int
}

func newScriptState(q *qbf.QBF) *scriptState {
	st := &scriptState{base: q, stack: make([][]qbf.Clause, 1)}
	for _, b := range q.Prefix.Blocks() {
		st.bound = append(st.bound, b.Vars...)
	}
	return st
}

// equivalent materializes the formula the session should currently be
// solving.
func (st *scriptState) equivalent() *qbf.QBF {
	fq := st.base.Clone()
	for _, fr := range st.stack {
		for _, c := range fr {
			fq.Matrix = append(fq.Matrix, append(qbf.Clause(nil), c...))
		}
	}
	return fq
}

// randomClause draws a scope-consistent clause over the bound variables —
// AddClause (like NewSolver) rejects clauses whose blocks do not form a
// chain of the quantifier tree, so candidates are filtered through
// ClauseBlock; a single-literal clause is always consistent and serves as
// the fallback.
func (st *scriptState) randomClause(rng *rand.Rand) qbf.Clause {
	for attempt := 0; attempt < 16; attempt++ {
		k := 1 + rng.Intn(3)
		seen := map[qbf.Var]bool{}
		var c qbf.Clause
		for j := 0; j < k; j++ {
			v := st.bound[rng.Intn(len(st.bound))]
			if seen[v] {
				continue
			}
			seen[v] = true
			l := v.PosLit()
			if rng.Intn(2) == 0 {
				l = v.NegLit()
			}
			c = append(c, l)
		}
		if _, err := st.base.ClauseBlock(c); err == nil {
			return c
		}
	}
	v := st.bound[rng.Intn(len(st.bound))]
	if rng.Intn(2) == 0 {
		return qbf.Clause{v.NegLit()}
	}
	return qbf.Clause{v.PosLit()}
}

// checkSolve runs the session Solve and the from-scratch reference solve
// of the equivalent formula and fails on any divergence. Solving twice
// exercises the verdict cache; the oracle (when affordable) pins both
// against ground truth.
func (st *scriptState) checkSolve(t *testing.T, s *Solver, opt Options, label string) {
	t.Helper()
	st.solves++
	got := s.Solve(context.Background())
	if got == Unknown {
		t.Fatalf("%s: session Solve returned Unknown (stop=%v)", label, s.Stats().StopReason)
	}
	if again := s.Solve(context.Background()); again != got {
		t.Fatalf("%s: repeated Solve flipped %v -> %v", label, got, again)
	}
	fq := st.equivalent()
	ref, err := Solve(context.Background(), fq, Options{Mode: opt.Mode, CheckInvariants: opt.CheckInvariants})
	if err != nil {
		t.Fatalf("%s: reference solve: %v\nQBF: %v", label, err, fq)
	}
	if ref.Verdict != got {
		t.Fatalf("%s: session says %v, fresh solve of the equivalent formula says %v\nQBF: %v",
			label, got, ref.Verdict, fq)
	}
	if want, ok := qbf.EvalWithBudget(fq, 500_000); ok {
		oracle := False
		if want {
			oracle = True
		}
		if got != oracle {
			t.Fatalf("%s: session says %v, oracle says %v\nQBF: %v", label, got, oracle, fq)
		}
	}
}

// scriptOp is one step of a session script: a push, a pop, an AddClause of
// lits, or an Assume of lits[0]. solve marks a step followed by a checked
// Solve.
type scriptOp struct {
	kind  opKind
	lits  qbf.Clause
	solve bool
}

type opKind uint8

const (
	opPush opKind = iota
	opPop
	opAdd
	opAssume
)

// runOps drives one session script against one base formula. Every Solve —
// the initial one, each step marked solve, and a final one — is checked
// against a fresh solve and the oracle (checkSolve). A pop at depth 0 must
// fail with ErrNoFrame.
func runOps(t *testing.T, q *qbf.QBF, opt Options, ops []scriptOp, label string) {
	t.Helper()
	opt.Incremental = true
	s, err := NewSolver(q, opt)
	if err != nil {
		t.Fatalf("%s: NewSolver: %v", label, err)
	}
	st := newScriptState(q)
	st.checkSolve(t, s, opt, label+" initial")
	for i, o := range ops {
		olabel := fmt.Sprintf("%s op %d", label, i)
		top := len(st.stack) - 1
		switch o.kind {
		case opPush:
			d, err := s.Push()
			if err != nil || d != len(st.stack) {
				t.Fatalf("%s: Push depth=%d err=%v, want depth %d", olabel, d, err, len(st.stack))
			}
			st.stack = append(st.stack, nil)
		case opPop:
			if top == 0 {
				if _, err := s.Pop(); !errors.Is(err, ErrNoFrame) {
					t.Fatalf("%s: Pop at depth 0: err=%v, want ErrNoFrame", olabel, err)
				}
				break
			}
			d, err := s.Pop()
			if err != nil || d != top-1 {
				t.Fatalf("%s: Pop depth=%d err=%v, want depth %d", olabel, d, err, top-1)
			}
			st.stack = st.stack[:top]
		case opAdd:
			if err := s.AddClause(o.lits); err != nil {
				t.Fatalf("%s: AddClause(%v): %v", olabel, o.lits, err)
			}
			st.stack[top] = append(st.stack[top], o.lits)
		case opAssume:
			if err := s.Assume(o.lits[0]); err != nil {
				t.Fatalf("%s: Assume(%v): %v", olabel, o.lits[0], err)
			}
			st.stack[top] = append(st.stack[top], o.lits[:1])
		}
		if o.solve {
			st.checkSolve(t, s, opt, olabel)
		}
	}
	st.checkSolve(t, s, opt, label+" final")
}

// scriptOps draws a random frame script over q's variables: pushes, pops,
// clause adds and assumptions of any bound literal, each followed by a
// Solve (a pop at depth 0 is not).
func scriptOps(rng *rand.Rand, q *qbf.QBF, n int) []scriptOp {
	st := newScriptState(q)
	depth := 0
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		o := scriptOp{solve: true}
		switch r := rng.Intn(10); {
		case r < 3:
			o.kind = opPush
			depth++
		case r < 5:
			o.kind = opPop
			if depth == 0 {
				o.solve = false
			} else {
				depth--
			}
		case r < 8:
			o.kind, o.lits = opAdd, st.randomClause(rng)
		default:
			o.kind, o.lits = opAssume, st.randomClause(rng)[:1]
		}
		ops = append(ops, o)
	}
	return ops
}

// runScript drives one random frame script against one base formula.
func runScript(t *testing.T, rng *rand.Rand, q *qbf.QBF, opt Options, ops int, label string) {
	t.Helper()
	runOps(t, q, opt, scriptOps(rng, q, ops), label)
}

// TestIncrementalMetamorphicTrees: random non-prenex trees under random
// frame scripts.
func TestIncrementalMetamorphicTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	n, ops := 40, 14
	if testing.Short() {
		n, ops = 12, 10
	}
	for i := 0; i < n; i++ {
		q := qbf.RandomQBF(rng, 10, 12)
		runScript(t, rng, q, Options{Mode: ModePartialOrder, CheckInvariants: true}, ops, fmt.Sprintf("tree %d", i))
	}
}

// TestIncrementalMetamorphicPrenex: prenex instances, both branching modes,
// plus the tiny-MaxLearned combo so frame drops race DB reduction and
// arena compaction.
func TestIncrementalMetamorphicPrenex(t *testing.T) {
	rng := rand.New(rand.NewSource(913))
	n, ops := 40, 14
	if testing.Short() {
		n, ops = 12, 10
	}
	for i := 0; i < n; i++ {
		q := randomPrenexQBF(rng, 9, 14, 4)
		opt := Options{Mode: ModePartialOrder, CheckInvariants: true}
		switch i % 3 {
		case 1:
			opt.Mode = ModeTotalOrder
		case 2:
			opt.MaxLearned = 4
		}
		runScript(t, rng, q, opt, ops, fmt.Sprintf("prenex %d", i))
	}
}

// TestIncrementalMetamorphicWideTrees: the diameter-like wide-tree shape,
// where cube learning (and so the cube-invalidation rule of AddClause)
// does the most work.
func TestIncrementalMetamorphicWideTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(917))
	n, ops := 25, 12
	if testing.Short() {
		n, ops = 8, 8
	}
	for i := 0; i < n; i++ {
		q := randomWideTree(rng)
		runScript(t, rng, q, Options{Mode: ModePartialOrder, CheckInvariants: true}, ops, fmt.Sprintf("wide %d", i))
	}
}

// TestIncrementalGates pins the API contract edges that random scripts hit
// only by luck.
func TestIncrementalGates(t *testing.T) {
	q := qbf.New(qbf.NewPrenexPrefix(2,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2}}),
		[]qbf.Clause{{qbf.Var(1).PosLit(), qbf.Var(2).PosLit()}})

	t.Run("non-incremental solver rejects session ops", func(t *testing.T) {
		s, err := NewSolver(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Push(); !errors.Is(err, ErrNotIncremental) {
			t.Fatalf("Push: %v, want ErrNotIncremental", err)
		}
		if _, err := s.Pop(); !errors.Is(err, ErrNotIncremental) {
			t.Fatalf("Pop: %v, want ErrNotIncremental", err)
		}
		if err := s.AddClause(qbf.Clause{qbf.Var(1).PosLit()}); !errors.Is(err, ErrNotIncremental) {
			t.Fatalf("AddClause: %v, want ErrNotIncremental", err)
		}
		if err := s.Assume(qbf.Var(1).PosLit()); !errors.Is(err, ErrNotIncremental) {
			t.Fatalf("Assume: %v, want ErrNotIncremental", err)
		}
	})

	t.Run("unbound and zero literals rejected", func(t *testing.T) {
		s, err := NewSolver(q, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(qbf.Clause{qbf.Var(7).PosLit()}); err == nil {
			t.Fatal("AddClause accepted a variable outside the session prefix")
		}
		if err := s.AddClause(qbf.Clause{qbf.NoLit}); err == nil {
			t.Fatal("AddClause accepted the zero literal")
		}
	})

	t.Run("tautology is a no-op", func(t *testing.T) {
		s, err := NewSolver(q, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(qbf.Clause{qbf.Var(1).PosLit(), qbf.Var(1).NegLit()}); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v after tautology, want True", v)
		}
	})

	t.Run("contradiction and recovery across frames", func(t *testing.T) {
		s, err := NewSolver(q, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("base verdict %v, want True", v)
		}
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		// x1 ∧ ¬x1 under the frame: empty clause after resolution is not
		// even needed — assume both polarities.
		if err := s.Assume(qbf.Var(1).PosLit(), qbf.Var(1).NegLit()); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("contradictory frame verdict %v, want False", v)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v after Pop, want True", v)
		}
	})

	t.Run("universal assumption reduces to the empty clause", func(t *testing.T) {
		uq := qbf.New(qbf.NewPrenexPrefix(2,
			qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{1}},
			qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{2}}),
			[]qbf.Clause{{qbf.Var(1).PosLit(), qbf.Var(2).PosLit()}})
		s, err := NewSolver(uq, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if err := s.Assume(qbf.Var(1).PosLit()); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v under a universal assumption, want False", v)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v after retracting the universal assumption, want True", v)
		}
	})

	t.Run("construction-time contradiction is permanent", func(t *testing.T) {
		fq := qbf.New(qbf.NewPrenexPrefix(1,
			qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{1}}),
			[]qbf.Clause{{qbf.Var(1).PosLit()}})
		s, err := NewSolver(fq, Options{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v, want False", v)
		}
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v after push/pop, want False (base contradiction)", v)
		}
	})
}

// TestIncrementalLearnedSurvival checks the point of the whole design: a
// session re-solving a hard FALSE instance after the frame it was first
// solved in pops must reuse the base-tagged learned clauses — the re-solve
// has to come in far below the conflict count of the first solve. The
// False is derived inside the frame, so the Pop must forget it; a False
// derived below the frame would outlive the Pop and make the re-solve free.
func TestIncrementalLearnedSurvival(t *testing.T) {
	s, err := NewSolver(phpFormula(5), Options{Mode: ModePartialOrder, Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != False {
		t.Fatalf("php5 verdict %v, want False", v)
	}
	first := s.Stats().Conflicts
	if first == 0 {
		t.Fatal("php5 solved without conflicts — the survival check is vacuous")
	}
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	if s.lastResult != Unknown {
		t.Fatalf("Pop of the frame the False was derived in kept verdict %v", s.lastResult)
	}
	// The re-solve must rediscover the False from the retained clause
	// database at a fraction of the original work.
	if v := s.Solve(context.Background()); v != False {
		t.Fatalf("php5 re-solve verdict %v, want False", v)
	}
	resolve := s.Stats().Conflicts - first
	if resolve == 0 {
		t.Fatal("re-solve derived False without a conflict — the survival check is vacuous")
	}
	if resolve*4 > first {
		t.Fatalf("re-solve needed %d conflicts vs %d initially: learned clauses did not survive the frame cycle", resolve, first)
	}
}

// TestIncrementalPureUniversalRetargeted pins the pure-invalidation rule of
// AddClause for AGREEING literals: a universal that enters the session
// unconstrained is pure-fixed to an arbitrary value at the root; a later
// clause mentioning it — even one the arbitrary value happens to satisfy —
// must unwind the assignment so fixPures can re-judge it against the grown
// occurrence sets. Keeping it would count the clause satisfied by a
// wrongly-oriented universal and flip the verdict.
func TestIncrementalPureUniversalRetargeted(t *testing.T) {
	// ∃e ∀u with matrix {e}: u is unconstrained, the formula is True.
	q := qbf.New(qbf.NewPrenexPrefix(2,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1}},
		qbf.Run{Quant: qbf.Forall, Vars: []qbf.Var{2}}),
		[]qbf.Clause{{qbf.Var(1).PosLit()}})
	s, err := NewSolver(q, Options{Mode: ModePartialOrder, Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != True {
		t.Fatalf("base verdict %v, want True", v)
	}
	// e ∧ u under ∀u is False regardless of which value the pure fix
	// happened to park u at — both polarities, symmetric on purpose, so
	// the test cannot pass by the fix picking the lucky value.
	for _, l := range []qbf.Lit{qbf.Var(2).PosLit(), qbf.Var(2).NegLit()} {
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(qbf.Clause{l}); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v with clause {%v} over the universal, want False", v, l)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v after Pop, want True", v)
		}
	}
}

// rootLits returns the literals of q's ≺-minimal existential variables —
// those no bound variable precedes — which Assume takes as root
// assumptions.
func rootLits(q *qbf.QBF, bound []qbf.Var) []qbf.Lit {
	p := q.Prefix
	p.Finalize()
	var out []qbf.Lit
	for _, v := range bound {
		if p.QuantOf(v) != qbf.Exists {
			continue
		}
		minimal := true
		for _, u := range bound {
			if p.Before(u, v) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, v.PosLit(), v.NegLit())
		}
	}
	return out
}

// rootScriptOps draws a random script dominated by root assumptions. Root
// literals are assumed in both polarities, and a third of them repeat an
// earlier assumption or its complement. AddClause runs in between, so the
// level 0 that Solve rebuilds changes under the assumptions, and a quarter
// of the ops are not followed by a Solve, so several changes meet one
// search.
func rootScriptOps(rng *rand.Rand, q *qbf.QBF, n int) []scriptOp {
	st := newScriptState(q)
	roots := rootLits(q, st.bound)
	var assumed []qbf.Lit
	depth := 0
	ops := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		var o scriptOp
		switch r := rng.Intn(20); {
		case r < 4:
			o.kind = opPush
			depth++
		case r < 7:
			o.kind = opPop
			if depth == 0 {
				ops = append(ops, o)
				continue
			}
			depth--
		case r < 10:
			o.kind, o.lits = opAdd, st.randomClause(rng)
		default:
			var l qbf.Lit
			switch {
			case len(roots) == 0 || r == 10:
				l = st.randomClause(rng)[0] // any bound literal, root or not
			case len(assumed) > 0 && rng.Intn(3) == 0:
				l = assumed[rng.Intn(len(assumed))]
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
			default:
				l = roots[rng.Intn(len(roots))]
			}
			assumed = append(assumed, l)
			o.kind, o.lits = opAssume, qbf.Clause{l}
		}
		o.solve = rng.Intn(4) != 0
		ops = append(ops, o)
	}
	return ops
}

// runRootScript drives one random script dominated by root assumptions
// (rootScriptOps).
func runRootScript(t *testing.T, rng *rand.Rand, q *qbf.QBF, opt Options, ops int, label string) {
	t.Helper()
	runOps(t, q, opt, rootScriptOps(rng, q, ops), label)
}

// randomDefQBF draws a true-leaning formula whose search has to learn
// cubes: a root existential block X with one or two branches ∀Y ∃Z below
// it, each z defined from one y and one other X∪Y variable (z ↔ a ⊕ c or
// z ↔ a ∧ c), plus up to two random clauses over X∪Z per branch. One
// branch is a prenex chain; two make a tree.
func randomDefQBF(rng *rand.Rand, branches int) *qbf.QBF {
	p := qbf.NewPrefix(1)
	v := qbf.Var(1)
	fresh := func(k int) []qbf.Var {
		var out []qbf.Var
		for i := 0; i < k; i++ {
			out = append(out, v)
			v++
		}
		p.GrowVar(v)
		return out
	}
	lit := func(x qbf.Var) qbf.Lit {
		if rng.Intn(2) == 0 {
			return x.NegLit()
		}
		return x.PosLit()
	}
	xs := fresh(2 + rng.Intn(2))
	root := p.AddBlock(nil, qbf.Exists, xs...)
	var m []qbf.Clause
	for b := 0; b < branches; b++ {
		ys := fresh(2)
		yb := p.AddBlock(root, qbf.Forall, ys...)
		zs := fresh(2 + rng.Intn(2))
		p.AddBlock(yb, qbf.Exists, zs...)
		src := append(append([]qbf.Var{}, xs...), ys...)
		for i, zv := range zs {
			av := ys[i%len(ys)]
			cv := src[rng.Intn(len(src))]
			for cv == av {
				cv = src[rng.Intn(len(src))]
			}
			z, a, c := zv.PosLit(), av.PosLit(), cv.PosLit()
			if rng.Intn(2) == 0 {
				m = append(m, qbf.Clause{z.Neg(), a, c}, qbf.Clause{z.Neg(), a.Neg(), c.Neg()},
					qbf.Clause{z, a.Neg(), c}, qbf.Clause{z, a, c.Neg()})
			} else {
				m = append(m, qbf.Clause{z.Neg(), a}, qbf.Clause{z.Neg(), c}, qbf.Clause{z, a.Neg(), c.Neg()})
			}
		}
		pool := append(append([]qbf.Var{}, xs...), zs...)
		for k := rng.Intn(3); k > 0; k-- {
			m = append(m, qbf.Clause{lit(pool[rng.Intn(len(pool))]), lit(pool[rng.Intn(len(pool))]), lit(pool[rng.Intn(len(pool))])})
		}
	}
	return qbf.New(p, m)
}

// TestIncrementalMetamorphicRootAssumptions: root-assumption-heavy scripts
// over cube-learning definitional formulas (prenex in both modes, trees,
// and the tiny-MaxLearned combo) and random trees, each Solve checked
// against a fresh solve and the oracle with the deep checker on.
func TestIncrementalMetamorphicRootAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(919))
	n, ops := 300, 16
	if testing.Short() {
		n, ops = 40, 10
	}
	for i := 0; i < n; i++ {
		opt := Options{Mode: ModePartialOrder, CheckInvariants: true}
		var q *qbf.QBF
		switch i % 5 {
		case 0:
			q = randomDefQBF(rng, 1)
		case 1:
			q = randomDefQBF(rng, 1)
			opt.Mode = ModeTotalOrder
		case 2:
			q = randomDefQBF(rng, 2)
		case 3:
			q = randomDefQBF(rng, 2)
			opt.MaxLearned = 4
		case 4:
			q = qbf.RandomQBF(rng, 10, 12)
		}
		runRootScript(t, rng, q, opt, ops, fmt.Sprintf("root %d", i))
	}
}

// xorChain is ∃x1 x2 ∀y1..yk ∃z1..zk with z_i ↔ (y_i ⊕ x1) and the clause
// (x1 ∨ x2): true, and every solution is a learned cube, since each
// universal value needs its own z.
func xorChain(k int) *qbf.QBF {
	var ys, zs []qbf.Var
	for i := 0; i < k; i++ {
		ys = append(ys, qbf.Var(3+i))
		zs = append(zs, qbf.Var(3+k+i))
	}
	p := qbf.NewPrenexPrefix(2+2*k,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2}},
		qbf.Run{Quant: qbf.Forall, Vars: ys},
		qbf.Run{Quant: qbf.Exists, Vars: zs})
	m := []qbf.Clause{mkClause(1, 2)}
	for i := 0; i < k; i++ {
		y, z := int(ys[i]), int(zs[i])
		m = append(m, mkClause(-z, y, 1), mkClause(-z, -y, -1), mkClause(z, -y, 1), mkClause(z, y, -1))
	}
	return qbf.New(p, m)
}

// cubeSession returns an incremental solver over xorChain(3) after its base
// solve, with the learned cube count.
func cubeSession(t *testing.T) (*Solver, int) {
	t.Helper()
	s, err := NewSolver(xorChain(3), Options{Mode: ModePartialOrder, Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != True {
		t.Fatalf("base verdict %v, want True", v)
	}
	if s.learnedCubes == 0 {
		t.Fatal("base solve learned no cube — the cube checks are vacuous")
	}
	return s, s.learnedCubes
}

// TestIncrementalRootAssumeKeepsCubes: a root assumption installs no
// clause, so every cube the base solve learned survives push, assume,
// solve and pop, in both polarities of both root variables.
func TestIncrementalRootAssumeKeepsCubes(t *testing.T) {
	s, cubes := cubeSession(t)
	for _, l := range []qbf.Lit{1, -1, 2, -2} {
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if err := s.Assume(l); err != nil {
			t.Fatal(err)
		}
		if s.learnedCubes < cubes {
			t.Fatalf("Assume(%v) dropped cubes: %d live, %d before", l, s.learnedCubes, cubes)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v under %v, want True", v, l)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if s.learnedCubes < cubes {
			t.Fatalf("round trip over %v left %d cubes, %d before", l, s.learnedCubes, cubes)
		}
		cubes = s.learnedCubes
	}
}

// TestIncrementalUnitAssumeDropsCubes: an Assume that is not a root
// assumption takes the unit-clause path. On an existential behind an
// alternation the unit clause grows the matrix, so every cube is dropped.
// On a universal it reduces to the empty clause: nothing is installed (the
// cubes stay valid and stay), and the contradiction is recorded against
// the frame.
func TestIncrementalUnitAssumeDropsCubes(t *testing.T) {
	for _, tc := range []struct {
		lit       qbf.Lit
		universal bool
	}{
		{6, false},  // z1: existential behind the ∀ block
		{-6, false}, // ¬z1
		{3, true},   // y1: universal
		{-3, true},  // ¬y1
	} {
		s, cubes := cubeSession(t)
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if err := s.Assume(tc.lit); err != nil {
			t.Fatal(err)
		}
		if len(s.frames[1].assumed) != 0 {
			t.Fatalf("Assume(%v) was taken as a root assumption", tc.lit)
		}
		switch {
		case !tc.universal && s.learnedCubes != 0:
			t.Fatalf("Assume(%v) kept %d cubes, want 0", tc.lit, s.learnedCubes)
		case tc.universal && (s.learnedCubes != cubes || !s.frames[1].contradiction):
			t.Fatalf("Assume(%v) left %d cubes and frame 1's contradiction %v, want %d and true", tc.lit, s.learnedCubes, s.frames[1].contradiction, cubes)
		}
		// Either way the formula is False: z1 is fixed although its value
		// has to follow y1, and a universal cannot be fixed at all.
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v under %v, want False", v, tc.lit)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != True {
			t.Fatalf("verdict %v after Pop, want True", v)
		}
	}
}

// TestIncrementalFalseOutlivesLaterFrame: a False derived at depth 0
// stands through push/assume/solve/pop — the popped frame held nothing the
// derivation used — so the round trip and the re-solve cost no conflict.
func TestIncrementalFalseOutlivesLaterFrame(t *testing.T) {
	s, err := NewSolver(phpFormula(4), Options{Mode: ModePartialOrder, Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != False {
		t.Fatalf("php4 verdict %v, want False", v)
	}
	base := s.Stats().Conflicts
	for _, l := range []qbf.Lit{1, -1} {
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		if err := s.Assume(l); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v under %v, want False", v, l)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(context.Background()); v != False {
			t.Fatalf("verdict %v after Pop, want False", v)
		}
	}
	if got := s.Stats().Conflicts - base; got != 0 {
		t.Fatalf("push/assume/solve/pop around a depth-0 False cost %d conflicts, want 0", got)
	}
}

// TestIncrementalPopForgetsOwnFalse: a False derived inside a frame dies
// with that frame, but outlives the pop of a deeper frame opened after it.
func TestIncrementalPopForgetsOwnFalse(t *testing.T) {
	// ∃x1 x2: (x1 ∨ x2) ∧ (¬x1 ∨ x2) is True; assuming ¬x2 makes it False.
	q := qbf.New(qbf.NewPrenexPrefix(2,
		qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{1, 2}}),
		[]qbf.Clause{mkClause(1, 2), mkClause(-1, 2)})
	s, err := NewSolver(q, Options{Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if err := s.Assume(-2); err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != False {
		t.Fatalf("verdict %v under ¬x2, want False", v)
	}
	conflicts := s.Stats().Conflicts
	if _, err := s.Push(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	if v := s.Solve(context.Background()); v != False || s.Stats().Conflicts != conflicts {
		t.Fatalf("after popping a later frame: verdict %v with %d new conflicts, want False with none",
			v, s.Stats().Conflicts-conflicts)
	}
	if _, err := s.Pop(); err != nil {
		t.Fatal(err)
	}
	if s.lastResult != Unknown {
		t.Fatalf("Pop of the frame the False was derived in kept verdict %v", s.lastResult)
	}
	if v := s.Solve(context.Background()); v != True {
		t.Fatalf("verdict %v after popping ¬x2, want True", v)
	}
}

// TestIncrementalWitnessAfterSessionOps: every session op unwinds the
// search state a True verdict's witness is read from, so any model
// Witness reports after one must still satisfy the formula. Seeded
// satisfiable sessions run solve, push, assume, solve, pop and a re-solve
// that returns the cached True; straight after a search a model must be
// available.
func TestIncrementalWitnessAfterSessionOps(t *testing.T) {
	rng := rand.New(rand.NewSource(929))
	n := 400
	if testing.Short() {
		n = 100
	}
	ctx := context.Background()
	var vars []qbf.Var
	for v := qbf.Var(1); v <= 8; v++ {
		vars = append(vars, v)
	}
	sessions := 0
	for i := 0; i < n; i++ {
		var m []qbf.Clause
		for c := 0; c < 20; c++ {
			var cl qbf.Clause
			for _, j := range rng.Perm(len(vars))[:3] {
				l := vars[j].PosLit()
				if rng.Intn(2) == 0 {
					l = l.Neg()
				}
				cl = append(cl, l)
			}
			m = append(m, cl)
		}
		q := qbf.New(qbf.NewPrenexPrefix(8, qbf.Run{Quant: qbf.Exists, Vars: vars}), m)
		s, err := NewSolver(q, Options{Incremental: true, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.Solve(ctx) != True {
			continue
		}
		sessions++
		check := func(step string, fq *qbf.QBF, searched bool) {
			t.Helper()
			model, ok := s.Witness()
			if searched && !ok {
				t.Fatalf("session %d %s: no witness straight after a search", i, step)
			}
			if ok && !VerifyWitness(fq, model) {
				t.Fatalf("session %d %s: witness %v does not satisfy %v", i, step, model, fq)
			}
		}
		check("solve", q, true)
		if _, err := s.Push(); err != nil {
			t.Fatal(err)
		}
		check("push", q, false)
		l := vars[rng.Intn(len(vars))].PosLit()
		if rng.Intn(2) == 0 {
			l = l.Neg()
		}
		if err := s.Assume(l); err != nil {
			t.Fatal(err)
		}
		fq := qbf.New(q.Prefix, append(append([]qbf.Clause{}, m...), qbf.Clause{l}))
		if s.Solve(ctx) == True {
			check("assume+solve", fq, true)
		}
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
		if v := s.Solve(ctx); v != True {
			t.Fatalf("session %d: verdict %v after Pop, want the cached True", i, v)
		}
		check("pop+solve", q, false)
	}
	if sessions < n/4 {
		t.Fatalf("only %d of %d sessions were satisfiable — the witness checks are too thin", sessions, n)
	}
}

// TestIncrementalRootCutKeepsWatches replays a session in which a cube
// forces a universal at level 0 between a falsified watch and its visit.
// With 1 assumed, a learned clause (¬1 ∨ ¬2) forces ¬2, and before ¬2 is
// visited a learned cube forces ¬3, so the visit leaves (5 ∨ ¬3 ∨ 2)
// parked on the false 2 behind the true ¬3. The AddClause of the unit
// clause (¬5) then drops the cubes. An operation that retracted ¬3 but kept
// ¬2 would leave that clause watching a false existential and an
// unassigned universal, blind to the ¬5 the unit forces: a silent conflict
// the deep checker reports under -tags qbfdebug. Every session operation
// unwinds the whole trail, so ¬2 and ¬3 leave together and the next Solve
// rebuilds level 0.
func TestIncrementalRootCutKeepsWatches(t *testing.T) {
	p := qbf.NewPrefix(6)
	x := p.AddBlock(nil, qbf.Exists, 1, 2)
	y := p.AddBlock(x, qbf.Forall, 3, 4)
	p.AddBlock(y, qbf.Exists, 5, 6)
	q := qbf.New(p, []qbf.Clause{
		mkClause(-5, 3, 2), mkClause(-5, -3, -2), mkClause(5, -3, 2), mkClause(5, 3, -2), // 5 ↔ 3 ⊕ 2
		mkClause(-6, 4), mkClause(-6, 1), mkClause(6, -4, -1), // 6 ↔ 4 ∧ 1
		mkClause(6, 1), mkClause(-5, -2, -1)})
	s, err := NewSolver(q, Options{Incremental: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	step := func(want Verdict, ops ...func() error) {
		t.Helper()
		for _, op := range ops {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		if v := s.Solve(ctx); v != want {
			t.Fatalf("verdict %v, want %v", v, want)
		}
	}
	push := func() error { _, err := s.Push(); return err }
	pop := func() error { _, err := s.Pop(); return err }
	assume := func(l qbf.Lit) func() error { return func() error { return s.Assume(l) } }
	step(True)
	step(False, push, assume(2)) // learns (¬1 ∨ ¬2)
	step(True, pop, assume(1))   // ¬2 and the cube's ¬3 at level 0
	step(False, func() error { return s.AddClause(mkClause(-5)) })
}

// TestIncrementalRuntimeClauseWatches replays the script of seed 125610.
// After its first Solve the level-0 trail is 2 (pure), ¬1, ¬5. The
// AddClause(3 ∨ 5 ∨ 4) that follows, placed under that assignment, would
// watch the universals 3 and 4, since 5 is false. Assume(¬2) then retracts
// the pure 2 and with it the whole level-0 trail, and the deep checker
// reports that "unsatisfied original clause 86 watches no unassigned
// existential". Every session operation starts from the empty trail, so
// the clause is placed, and watches 5, under the empty assignment.
func TestIncrementalRuntimeClauseWatches(t *testing.T) {
	rng := rand.New(rand.NewSource(125610))
	q := randomDefQBF(rng, 1)
	runRootScript(t, rng, q, Options{Mode: ModePartialOrder, CheckInvariants: true}, 16, "seed 125610")
}

// TestPopLinearFrame pushes a frame, adds 200k clauses (x1 ∨ xi) to it and
// pops it. Every clause sits in x1's occurrence list, so a Pop that
// searched the list for each clause it retracts would take minutes.
func TestPopLinearFrame(t *testing.T) {
	const n = 200_000
	vars := make([]qbf.Var, n+1)
	for i := range vars {
		vars[i] = qbf.VarOf(i + 1)
	}
	p := qbf.NewPrenexPrefix(n+1, qbf.Run{Quant: qbf.Exists, Vars: vars})
	s, err := NewSolver(qbf.New(p, []qbf.Clause{mkClause(1, 2)}), Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	lineartest.Within(t, "Push, 200k AddClause and Pop", func() {
		if _, err = s.Push(); err != nil {
			return
		}
		for _, v := range vars[1:] {
			if err = s.AddClause(qbf.Clause{1, v.PosLit()}); err != nil {
				return
			}
		}
		_, err = s.Pop()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.occ[enc(1)]); got != 1 || len(s.frames) != 1 || len(s.frames[0].clauses) != 0 || s.nOriginalClauses != 1 {
		t.Fatalf("after Pop: x1 occurs in %d clauses, %d frame records, %d runtime originals, %d originals; want 1, 1, 0, 1",
			got, len(s.frames), len(s.frames[0].clauses), s.nOriginalClauses)
	}
	if v := s.Solve(context.Background()); v != True {
		t.Fatalf("after Pop: %v, want TRUE", v)
	}
}

// TestPopLinearEmptyFrames adds 100k clauses (x1 ∨ xi) at depth 0, then
// pushes and pops 100k empty frames. A Pop that walked every runtime
// original and learned constraint to find the ones tagged with its frame
// would take minutes; Pop visits only what its frame holds.
func TestPopLinearEmptyFrames(t *testing.T) {
	const n = 100_000
	vars := make([]qbf.Var, n+1)
	for i := range vars {
		vars[i] = qbf.VarOf(i + 1)
	}
	p := qbf.NewPrenexPrefix(n+1, qbf.Run{Quant: qbf.Exists, Vars: vars})
	s, err := NewSolver(qbf.New(p, []qbf.Clause{mkClause(1, 2)}), Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	lineartest.Within(t, "100k AddClause and 100k empty Push/Pop pairs", func() {
		for _, v := range vars[1:] {
			if err = s.AddClause(qbf.Clause{1, v.PosLit()}); err != nil {
				return
			}
		}
		for i := 0; i < n && err == nil; i++ {
			if _, err = s.Push(); err == nil {
				_, err = s.Pop()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.frames[0].clauses) != n || s.FrameDepth() != 0 {
		t.Fatalf("%d runtime originals at depth %d, want %d at depth 0", len(s.frames[0].clauses), s.FrameDepth(), n)
	}
	if v := s.Solve(context.Background()); v != True {
		t.Fatalf("%v, want TRUE", v)
	}
}
