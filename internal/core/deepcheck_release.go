//go:build !qbfdebug

package core

import "repro/internal/qbf"

// invariantsCompiled reports whether the deep checker is compiled into
// this binary. Without the qbfdebug build tag every hook below is an empty
// no-op the compiler inlines away, so Options.CheckInvariants costs
// nothing in production builds.
const invariantsCompiled = false

func (s *Solver) attachInvariantPrefix(p *qbf.Prefix) {}

func (s *Solver) deepCheck() {}

func (s *Solver) checkLearnedConstraint(lits []code, isCube bool) {}

func (s *Solver) checkCover(w *workSet) {}
