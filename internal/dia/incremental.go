package dia

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/qbf"
)

// This file is the incremental diameter ladder: one core session solves the
// whole φ0, φ1, … sequence instead of building a fresh solver per n. The
// construction exploits how φn grows with n:
//
//   - Monotone parts — the chain links T'(x_{i-1},x_i) and the y-side
//     AND-ladder definitions g_i ← g_{i-1} ∧ t_i, each with its Tseitin
//     cone — enter the formula permanently (depth-0 adds) at the first
//     step that needs them and are never retracted.
//   - The step-local parts — the target link T'(x_n, xTarget) with its
//     cone and root assertion, and the break assertion ¬(g_n ∧ eq_n) with
//     eq_n's cone — live entirely in a pushed frame that pops before
//     advancing. Each TseitinPG call is self-contained (fresh definition
//     variables per call, no cross-call sharing), so a popped cone leaves
//     no dangling references, and retired steps leave no inert clauses
//     behind to dilute propagation or cover cubes.
//
// The prefix is built once for maxN with every definition variable
// pre-placed in its final block (the session prefix is fixed), so variable
// numbering is stable across the whole ladder and lemmas learned from the
// permanent part — frame tag 0 — survive every pop and prune later steps.
// Variables of popped and not-yet-reached cones are unconstrained, which
// costs nothing: an unreferenced variable is never branched on, and the
// matrix-empty solution check ignores it.

// ladderStep is the clause delta of one diameter step.
type ladderStep struct {
	// perm is added permanently (depth 0) when the ladder reaches this step.
	perm []qbf.Clause
	// assert is added inside the step's frame and retracted by its pop.
	assert []qbf.Clause
	// vars counts the prefix variables first used by this step.
	vars int
}

// buildLadder constructs the shared prefix for maxN and the per-step clause
// deltas. The returned QBF carries step 0's permanent clauses as its
// matrix; steps[0].perm is that same set (already installed when the
// session is built over the QBF).
func buildLadder(m *models.Model, maxN int) (*qbf.QBF, []ladderStep) {
	b := circuit.NewBuilder()
	l := newLayout(m, maxN)
	alloc := circuit.NewVarAlloc(l.next)
	tPrime := func(s, t []qbf.Var) circuit.Node {
		return b.Or(b.And(m.Init(b, s), m.Init(b, t)), m.Trans(b, s, t))
	}

	steps := make([]ladderStep, maxN+1)
	stepDefs := make([][]qbf.Var, maxN+1)
	var posFresh []qbf.Var
	g := make([]qbf.Lit, maxN+1)

	for n := 0; n <= maxN; n++ {
		st := &steps[n]
		if n == 0 {
			st.vars = 2 * l.bits // xTarget and x_0; y_0 counted below
			i0x := b.TseitinPG(m.Init(b, l.xs[0]), circuit.Pos, alloc)
			st.perm = append(st.perm, i0x.Clauses...)
			st.perm = append(st.perm, qbf.Clause{i0x.Root})
			posFresh = append(posFresh, i0x.Fresh...)
			st.vars += len(i0x.Fresh)

			i0y := b.TseitinPG(m.Init(b, l.ys[0]), circuit.Neg, alloc)
			st.perm = append(st.perm, i0y.Clauses...)
			stepDefs[0] = append(stepDefs[0], i0y.Fresh...)
			st.vars += len(i0y.Fresh)
			g[0] = i0y.Root
		} else {
			st.vars = l.bits // x_n; y_n counted below
			pn := b.TseitinPG(tPrime(l.xs[n-1], l.xs[n]), circuit.Pos, alloc)
			st.perm = append(st.perm, pn.Clauses...)
			st.perm = append(st.perm, qbf.Clause{pn.Root})
			posFresh = append(posFresh, pn.Fresh...)
			st.vars += len(pn.Fresh)

			tn := b.TseitinPG(tPrime(l.ys[n-1], l.ys[n]), circuit.Neg, alloc)
			st.perm = append(st.perm, tn.Clauses...)
			stepDefs[n] = append(stepDefs[n], tn.Fresh...)
			st.vars += len(tn.Fresh)
			gn := alloc.Fresh()
			stepDefs[n] = append(stepDefs[n], gn)
			st.vars++
			st.perm = append(st.perm, qbf.Clause{gn.PosLit(), g[n-1].Neg(), tn.Root.Neg()})
			g[n] = gn.PosLit()
		}
		st.vars += l.bits // y_n

		ln := b.TseitinPG(tPrime(l.xs[n], l.xTarget), circuit.Pos, alloc)
		st.assert = append(st.assert, ln.Clauses...)
		posFresh = append(posFresh, ln.Fresh...)
		st.vars += len(ln.Fresh)
		st.assert = append(st.assert, qbf.Clause{ln.Root})

		eqn := b.TseitinPG(models.EqVec(b, l.xTarget, l.ys[n]), circuit.Neg, alloc)
		st.assert = append(st.assert, eqn.Clauses...)
		stepDefs[n] = append(stepDefs[n], eqn.Fresh...)
		st.vars += len(eqn.Fresh)
		st.assert = append(st.assert, qbf.Clause{g[n].Neg(), eqn.Root.Neg()})
	}

	// Prefix tree: the same shape as Phi's, built once for maxN — the
	// x-branch and the y-ladder are incomparable siblings under xTarget.
	p := qbf.NewPrefix(int(alloc.Next()) - 1)
	root := p.AddBlock(nil, qbf.Exists, l.xTarget...)
	var xAll []qbf.Var
	for _, v := range l.xs {
		xAll = append(xAll, v...)
	}
	xAll = append(xAll, posFresh...)
	p.AddBlock(root, qbf.Exists, xAll...)
	parent := root
	for i := 0; i <= maxN; i++ {
		parent = p.AddBlock(parent, qbf.Forall, l.ys[i]...)
		if len(stepDefs[i]) > 0 {
			parent = p.AddBlock(parent, qbf.Exists, stepDefs[i]...)
		}
	}
	p.Finalize()
	return qbf.New(p, steps[0].perm), steps
}

// StepInstance materializes φk of m's diameter ladder as one self-contained
// formula: the permanent clauses of steps 0..k plus step k's framed
// assertions, over the ladder prefix built for k. The variant sweeps (the
// incremental tests here, perfbench's dia-ladder workload) use these as
// base instances for incremental-vs-one-shot comparisons — every clause
// sits at frame 0, so an incremental session over the result keeps all of
// its learning across push/pop perturbations.
func StepInstance(m *models.Model, k int) (*qbf.QBF, error) {
	if k < 0 {
		return nil, fmt.Errorf("dia: StepInstance: negative step %d", k)
	}
	q, steps := buildLadder(m, k)
	var all []qbf.Clause
	for n := 0; n <= k; n++ {
		all = append(all, steps[n].perm...)
	}
	all = append(all, steps[k].assert...)
	return qbf.New(q.Prefix, all), nil
}

// statsDelta returns the counters cur accumulated since prev; high-water
// marks keep their current value.
func statsDelta(cur, prev core.Stats) core.Stats {
	d := cur
	d.Decisions -= prev.Decisions
	d.Propagations -= prev.Propagations
	d.PureAssignments -= prev.PureAssignments
	d.Conflicts -= prev.Conflicts
	d.Solutions -= prev.Solutions
	d.LearnedClauses -= prev.LearnedClauses
	d.LearnedCubes -= prev.LearnedCubes
	d.Backjumps -= prev.Backjumps
	d.ChronoBacktracks -= prev.ChronoBacktracks
	d.Restarts -= prev.Restarts
	d.Fixpoints -= prev.Fixpoints
	d.MemReductions -= prev.MemReductions
	d.Time -= prev.Time
	return d
}

// ComputeDiameterIncremental computes the diameter of m like
// ComputeDiameter, but over one incremental QUBE(PO) session instead of a
// fresh solver per step: each step adds its permanent clause delta, pushes
// a frame with the step-local assertions, solves, and pops. Lemmas learned
// from the permanent part survive across steps. opt.Mode and
// opt.Incremental are overridden; maxN bounds the iteration.
func ComputeDiameterIncremental(ctx context.Context, m *models.Model, maxN int, opt core.Options) (Result, error) {
	opt.Mode = core.ModePartialOrder
	opt.Incremental = true
	q, steps := buildLadder(m, maxN)
	s, err := core.NewSolver(q, opt)
	if err != nil {
		return Result{Model: m.Name}, err
	}
	res := Result{Model: m.Name}
	vars, clauses := 0, 0
	var prev core.Stats
	for n := 0; n <= maxN; n++ {
		if n > 0 {
			for _, c := range steps[n].perm {
				if err := s.AddClause(c); err != nil {
					return res, err
				}
			}
		}
		vars += steps[n].vars
		clauses += len(steps[n].perm) + len(steps[n].assert)
		if _, err := s.Push(); err != nil {
			return res, err
		}
		for _, c := range steps[n].assert {
			if err := s.AddClause(c); err != nil {
				return res, err
			}
		}
		v := s.Solve(ctx)
		cur := s.Stats()
		res.Steps = append(res.Steps, Step{
			N: n, Result: v, Stats: statsDelta(cur, prev), Vars: vars, Clauses: clauses,
		})
		prev = cur
		if _, err := s.Pop(); err != nil {
			return res, err
		}
		switch v {
		case core.False:
			res.Diameter = n
			res.Decided = true
			return res, nil
		case core.Unknown:
			return res, nil
		}
	}
	return res, nil
}
