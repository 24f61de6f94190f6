//go:build !qbfnotrace

package core

import "repro/internal/telemetry"

// This file is the default (hooks-compiled-in) half of the telemetry
// split; trace_off.go is the qbfnotrace mirror with empty bodies. The
// pattern follows deepcheck_release.go/deepcheck_qbfdebug.go: the search
// loop calls these helpers unconditionally, and the build tag decides whether
// they cost a nil-check (here) or nothing at all (qbfnotrace). The
// qbfnotrace build exists to give scripts/check.sh a true no-hook
// baseline for the <2% disabled-overhead gate.

// emitEv records one event at the current decision level. depth is the
// prefix-depth attribution; a and b are the per-kind payload.
func (s *Solver) emitEv(k telemetry.Kind, depth int, a, b int64) {
	if t := s.opt.Telemetry; t != nil {
		t.Emit(k, s.level, depth, a, b)
	}
}

// emitConstraintEv records an event about constraint ci, attributing it
// to the deepest prefix level among the constraint's literals (the level
// that "caused" the conflict/solution in the ≺ order).
func (s *Solver) emitConstraintEv(k telemetry.Kind, ci int) {
	t := s.opt.Telemetry
	if t == nil {
		return
	}
	depth, size := int64(0), int64(0)
	if ci >= 0 && ci < s.ar.end() {
		n := s.ar.size(ci)
		size = int64(n)
		d := 0
		for j := 0; j < n; j++ {
			if p := s.plevel[s.ar.lit(ci, j).v()]; p > d {
				d = p
			}
		}
		depth = int64(d)
	}
	t.Emit(k, s.level, int(depth), int64(ci), size)
}

// emitLitsEv records an event about a literal set not (yet) installed as
// a constraint — a freshly learned one. b carries the
// per-kind payload (0 clause / 1 cube).
func (s *Solver) emitLitsEv(k telemetry.Kind, lits []code, b int64) {
	t := s.opt.Telemetry
	if t == nil {
		return
	}
	t.Emit(k, s.level, int(s.litsDepth(lits)), int64(len(lits)), b)
}

func (s *Solver) litsDepth(lits []code) int64 {
	depth := 0
	for _, l := range lits {
		if p := s.plevel[l.v()]; p > depth {
			depth = p
		}
	}
	return int64(depth)
}
