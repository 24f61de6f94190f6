package core

import (
	"context"

	"repro/internal/qbf"
)

// Solve decides q under ctx with the given options and returns the
// unified Result (verdict + search statistics). It is the package's
// convenience entry point; construct a Solver directly to reuse
// configuration, resume after a budget stop, or install hooks. Engine
// panics propagate — use SafeSolve for fault containment.
func Solve(ctx context.Context, q *qbf.QBF, opt Options) (Result, error) {
	s, err := NewSolver(q, opt)
	if err != nil {
		return Result{}, err
	}
	v := s.Solve(ctx)
	return Result{Verdict: v, Stats: s.Stats()}, nil
}

// MustSolve is Solve for inputs known to be well formed; it panics on a
// construction error. Intended for generator-produced formulas in tests
// and benchmarks.
func MustSolve(ctx context.Context, q *qbf.QBF, opt Options) Result {
	r, err := Solve(ctx, q, opt)
	if err != nil {
		panic(err) //lint:allow L3 MustSolve's documented contract is to panic with the construction error
	}
	return r
}

// InvariantsCompiled reports whether the deep invariant checker behind
// Options.CheckInvariants is compiled into this binary, i.e. whether the
// build used -tags qbfdebug.
func InvariantsCompiled() bool { return invariantsCompiled }
