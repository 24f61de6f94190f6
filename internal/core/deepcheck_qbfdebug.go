//go:build qbfdebug

package core

import (
	"math/rand"

	"repro/internal/invariant"
	"repro/internal/qbf"
)

// invariantsCompiled reports whether the deep checker is compiled into
// this binary (true exactly under the qbfdebug build tag).
const invariantsCompiled = true

// attachInvariantPrefix validates the finalized input prefix and
// cross-checks the solver's O(1) ≺ test against the structural
// Prefix.Before — the property the whole engine's soundness rests on.
// Pairs are exhaustive for small formulas, sampled deterministically
// otherwise.
func (s *Solver) attachInvariantPrefix(p *qbf.Prefix) {
	if !s.opt.CheckInvariants {
		return
	}
	s.dbgPrefix = p
	invariant.Must(invariant.CheckPrefix(p), "core: input prefix after Finalize")
	invariant.Must(invariant.CheckOrder(p, 1024, int64(s.nVars)+1), "core: partial order laws")

	check := func(a, b qbf.Var) {
		if s.blockOf[a] < 0 || s.blockOf[b] < 0 {
			return // ghost variables take no part in solving
		}
		invariant.Check(s.before(a, b) == p.Before(a, b),
			"core: solver before(%d,%d)=%v disagrees with Prefix.Before=%v",
			a, b, s.before(a, b), p.Before(a, b))
	}
	if s.nVars <= 64 {
		for a := qbf.MinVar; a.Int() <= s.nVars; a++ {
			for b := qbf.MinVar; b.Int() <= s.nVars; b++ {
				check(a, b)
			}
		}
		return
	}
	rng := rand.New(rand.NewSource(int64(s.nVars)))
	for i := 0; i < 4096; i++ {
		check(qbf.VarOf(1+rng.Intn(s.nVars)), qbf.VarOf(1+rng.Intn(s.nVars)))
	}
}

// deepCheck recomputes the solver's incremental state from scratch and
// panics (via invariant.Violated) on any mismatch. It is called at every
// propagation fixpoint — between decisions — so every trail literal has
// been dequeued and its residual-matrix effects applied (qhead ==
// len(trail)).
func (s *Solver) deepCheck() {
	if !s.opt.CheckInvariants || s.trivial != Unknown {
		return
	}
	s.checkTrail()
	s.checkBlockBookkeeping()
	s.checkConstraintCounters()
	s.checkMatrixBookkeeping()
	s.checkWatchInvariants()
	s.checkFrames()
}

func (s *Solver) checkTrail() {
	invariant.Check(s.qhead == len(s.trail),
		"core: deepCheck at a non-fixpoint: qhead=%d, trail=%d", s.qhead, len(s.trail))
	invariant.Check(len(s.levelStart) == s.level+1,
		"core: levelStart has %d entries for level %d", len(s.levelStart), s.level)

	for i, l := range s.trail {
		v := l.Var()
		invariant.Check(v >= qbf.MinVar && v.Int() <= s.nVars, "core: trail[%d] has variable %d out of range", i, v)
		invariant.Check(s.litValue(l) == vTrue, "core: trail literal %d is not true", l)
		invariant.Check(s.trailPos[v] == i, "core: trailPos[%d]=%d, but the variable sits at %d", v, s.trailPos[v], i)
		invariant.Check(s.dlevel[v] >= 0 && s.dlevel[v] <= s.level, "core: dlevel[%d]=%d outside [0,%d]", v, s.dlevel[v], s.level)
		invariant.Check(s.reason[v] != reasonNone, "core: assigned variable %d has no reason", v)
		invariant.Check(s.blockOf[v] >= 0, "core: ghost variable %d was assigned", v)
	}
	assigned := 0
	for v := qbf.MinVar; v.Int() <= s.nVars; v++ {
		if s.value[v] != undef {
			assigned++
			tp := s.trailPos[v]
			invariant.Check(tp >= 0 && tp < len(s.trail) && s.trail[tp].Var() == v,
				"core: assigned variable %d not found on the trail", v)
		} else {
			invariant.Check(s.reason[v] == reasonNone, "core: unassigned variable %d carries reason %d", v, s.reason[v])
		}
	}
	invariant.Check(assigned == len(s.trail),
		"core: %d variables assigned but the trail holds %d", assigned, len(s.trail))

	// Each open decision level starts with a decision (or flipped
	// decision) literal recorded at that level; starts strictly increase.
	invariant.Check(s.level == 0 || s.levelStart[0] == 0, "core: levelStart[0]=%d", s.levelStart[0])
	for k := 1; k <= s.level; k++ {
		start := s.levelStart[k]
		end := len(s.trail)
		if k < s.level {
			end = s.levelStart[k+1]
		}
		invariant.Check(start < end, "core: decision level %d is empty [%d,%d)", k, start, end)
		l := s.trail[start]
		rk := s.reason[l.Var()]
		invariant.Check(rk == reasonDecision || rk == reasonFlipped,
			"core: level %d starts with reason %d, want a decision", k, rk)
		invariant.Check(s.dlevel[l.Var()] == k,
			"core: decision of level %d recorded at dlevel %d", k, s.dlevel[l.Var()])
	}

	// Constraint-propagated literals must cite a live reason constraint
	// that actually contains them (negated for cube propagations, which
	// assign the complement of the remaining universal literal).
	for _, l := range s.trail {
		v := l.Var()
		if s.reason[v] != reasonConstraint {
			continue
		}
		ci := s.reasonC[v]
		invariant.Check(ci >= 0 && ci < s.ar.end(), "core: reason constraint %d of variable %d out of range", ci, v)
		invariant.Check(!s.ar.deleted(ci), "core: reason constraint %d of variable %d was deleted", ci, v)
		want := l
		if s.ar.isCube(ci) {
			want = l.Neg()
		}
		found := false
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			if s.ar.lit(ci, k) == want {
				found = true
				break
			}
		}
		invariant.Check(found, "core: reason constraint %d does not contain literal %d", ci, want)
	}
}

func (s *Solver) checkBlockBookkeeping() {
	for bi := range s.blocks {
		b := &s.blocks[bi]
		un := 0
		for _, v := range b.vars {
			if s.value[v] == undef {
				un++
			}
		}
		invariant.Check(un == b.unassigned,
			"core: block %d caches unassigned=%d, recomputed %d", bi, b.unassigned, un)
	}
	for bi := range s.blocks {
		open := 0
		for _, g := range s.blocks[bi].guards {
			if s.blocks[g].unassigned > 0 {
				open++
			}
		}
		invariant.Check(open == s.blocks[bi].guardOpen,
			"core: block %d caches guardOpen=%d, recomputed %d", bi, s.blocks[bi].guardOpen, open)
	}
}

// checkConstraintCounters validates the satisfied-clause bookkeeping of
// the original clauses: each one's satisfaction tag is one plus the
// smallest trail position among its true literals (0 when it has none; at
// a fixpoint every trail literal has been dequeued), and satStack holds
// exactly the tagged clauses, in non-decreasing tag order. In incremental
// sessions the originals added at runtime live past origEnd with the
// learned flag off and are held to the same invariant; learned constraints
// carry no tag at all.
func (s *Solver) checkConstraintCounters() {
	tagged := 0
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) {
			continue
		}
		want := 0
		if !s.ar.learned(ci) {
			for k, n := 0, s.ar.size(ci); k < n; k++ {
				l := s.ar.lit(ci, k)
				if p := s.trailPos[l.Var()]; s.litValue(l) == vTrue && (want == 0 || p+1 < want) {
					want = p + 1
				}
			}
		}
		if want != 0 {
			tagged++
		}
		invariant.Check(s.ar.sat(ci) == want,
			"core: constraint %d satisfaction tag stale: cached %d, recomputed %d", ci, s.ar.sat(ci), want)
	}
	invariant.Check(len(s.satStack) == tagged,
		"core: satStack holds %d clauses, but %d originals are satisfied", len(s.satStack), tagged)
	seen := make(map[int32]bool, len(s.satStack))
	prev := 0
	for i, ci := range s.satStack {
		invariant.Check(int(ci) < s.ar.end() && !s.ar.deleted(int(ci)) && !s.ar.learned(int(ci)),
			"core: satStack[%d]=%d is not a live original clause", i, ci)
		invariant.Check(!seen[ci], "core: satStack holds clause %d twice", ci)
		seen[ci] = true
		tag := s.ar.sat(int(ci))
		invariant.Check(tag >= prev,
			"core: satStack out of tag order: satStack[%d]=%d has tag %d after tag %d", i, ci, tag, prev)
		prev = tag
	}
}

// checkWatchInvariants validates the watcher engine's data-structure and
// propagation-completeness contract at a fixpoint. Three tiers:
//
//   - Structural, every live constraint: the watched literals are at
//     positions 0 and 1 (position 0 alone for unit-size constraints), each
//     is registered exactly once in its trigger slot (watchCl under the
//     negation for clauses, watchCu under the literal itself for cubes),
//     the constraint appears nowhere else in the tables, and every entry's
//     blocker is a literal of the constraint.
//   - Strong, original clauses: an unsatisfied original clause has at
//     least one unassigned existential literal (otherwise it is a
//     conflicting clause the engine failed to report — a silent conflict)
//     and watches at least one of them (otherwise a future falsification
//     could go unseen). This is the invariant the engine's soundness
//     argument rests on.
//   - Heuristic, cubes: a non-dead cube with an unassigned universal
//     watches an unassigned universal or a true literal.
//
// Learned clauses get the structural tier only: an import installed under
// a deep assignment can legitimately hold watches with no undef
// existential (its events are optional pruning, not soundness).
func (s *Solver) checkWatchInvariants() {
	// Census: total registrations per live ref across both tables (stale
	// entries for deleted refs are permitted — they are purged lazily).
	total := make(map[int32]int)
	for _, lists := range [2][][]watcher{s.watchCl, s.watchCu} {
		for _, ws := range lists {
			for _, e := range ws {
				if !s.ar.deleted(int(e.c)) {
					total[e.c]++
				}
			}
		}
	}
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) {
			continue
		}
		n := s.ar.size(ci)
		isCube := s.ar.isCube(ci)
		nw := 2
		if n == 1 {
			nw = 1
		}
		invariant.Check(total[int32(ci)] == nw,
			"core: constraint %d has %d watcher registrations, want %d", ci, total[int32(ci)], nw)
		for k := 0; k < nw; k++ {
			w := s.ar.lit(ci, k)
			var list []watcher
			if isCube {
				list = s.watchCu[litIdx(w)]
			} else {
				list = s.watchCl[litIdx(w.Neg())]
			}
			count := 0
			for _, e := range list {
				if int(e.c) != ci {
					continue
				}
				count++
				b := qbf.Lit(e.blocker) //lint:allow L2 round-trip decode of a stored watcher blocker
				member := false
				for j := 0; j < n; j++ {
					if s.ar.lit(ci, j) == b {
						member = true
						break
					}
				}
				invariant.Check(member,
					"core: constraint %d watcher blocker %d is not a literal of the constraint", ci, b)
			}
			invariant.Check(count == 1,
				"core: constraint %d watch %d registered %d times in its trigger slot, want 1", ci, w, count)
		}
		if !isCube && !s.ar.learned(ci) {
			// Strong tier for original clauses.
			sat := false
			undefE := 0
			for k := 0; k < n; k++ {
				l := s.ar.lit(ci, k)
				if s.litValue(l) == vTrue {
					sat = true
					break
				}
				if s.value[l.Var()] == undef && s.quant[l.Var()] == qbf.Exists {
					undefE++
				}
			}
			if !sat {
				invariant.Check(undefE >= 1,
					"core: original clause %d is conflicting at a fixpoint (silent conflict)", ci)
				watchesUndefE := false
				for k := 0; k < nw; k++ {
					w := s.ar.lit(ci, k)
					if s.value[w.Var()] == undef && s.quant[w.Var()] == qbf.Exists {
						watchesUndefE = true
						break
					}
				}
				invariant.Check(watchesUndefE,
					"core: unsatisfied original clause %d watches no unassigned existential", ci)
			}
		}
		if isCube {
			// Heuristic tier for cubes.
			dead := false
			undefU := 0
			for k := 0; k < n; k++ {
				l := s.ar.lit(ci, k)
				if s.litValue(l) == vFalse {
					dead = true
					break
				}
				if s.value[l.Var()] == undef && s.quant[l.Var()] == qbf.Forall {
					undefU++
				}
			}
			if !dead && undefU >= 1 {
				ok := false
				for k := 0; k < nw; k++ {
					w := s.ar.lit(ci, k)
					if s.litValue(w) == vTrue ||
						(s.value[w.Var()] == undef && s.quant[w.Var()] == qbf.Forall) {
						ok = true
						break
					}
				}
				invariant.Check(ok,
					"core: live cube %d watches no unassigned universal or true literal", ci)
			}
		}
	}
}

// checkMatrixBookkeeping recomputes the residual-matrix state driving the
// pure-literal rule: the number of original clauses with no true literal
// and, per literal, how many such clauses contain it.
func (s *Solver) checkMatrixBookkeeping() {
	unsat := 0
	active := make([]int, len(s.activeOcc))
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) || s.ar.learned(ci) {
			continue
		}
		n := s.ar.size(ci)
		satisfied := false
		for k := 0; k < n; k++ {
			if s.litValue(s.ar.lit(ci, k)) == vTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		unsat++
		for k := 0; k < n; k++ {
			active[litIdx(s.ar.lit(ci, k))]++
		}
	}
	invariant.Check(unsat == s.numUnsatOriginal,
		"core: numUnsatOriginal=%d, recomputed %d", s.numUnsatOriginal, unsat)
	for i := range active {
		invariant.Check(active[i] == s.activeOcc[i],
			"core: activeOcc[%d]=%d, recomputed %d", i, s.activeOcc[i], active[i])
	}
}

// checkFrames validates the incremental-session bookkeeping: frame marks
// are monotone positions into the (level-0 prefix of the) trail, every
// clause a frame tracks is a live runtime original carrying that frame's
// depth as its tag, learned tags are bounded by the live frame count, and
// learned cubes — implicants of the current matrix, invalidated by any
// matrix growth — always carry tag 0.
func (s *Solver) checkFrames() {
	invariant.Check(s.falseFrom >= -1 && s.falseFrom <= len(s.frames),
		"core: falseFrom=%d with %d frames", s.falseFrom, len(s.frames))
	prev := 0
	for fi := range s.frames {
		f := &s.frames[fi]
		depth := fi + 1
		invariant.Check(f.mark >= prev && f.mark <= len(s.trail),
			"core: frame %d mark %d outside [%d,%d]", depth, f.mark, prev, len(s.trail))
		prev = f.mark
		for _, ci := range f.clauses {
			invariant.Check(ci >= s.origEnd && ci < s.ar.end(),
				"core: frame %d tracks ref %d outside the runtime region", depth, ci)
			invariant.Check(!s.ar.deleted(ci) && !s.ar.learned(ci) && !s.ar.isCube(ci),
				"core: frame %d tracks ref %d that is not a live original clause", depth, ci)
			invariant.Check(s.ar.frame(ci) == depth,
				"core: frame %d tracks ref %d tagged %d", depth, ci, s.ar.frame(ci))
		}
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) {
			continue
		}
		tag := s.ar.frame(ci)
		invariant.Check(tag >= 0 && tag <= len(s.frames),
			"core: constraint %d tagged frame %d with %d frames live", ci, tag, len(s.frames))
		if s.ar.isCube(ci) {
			invariant.Check(tag == 0, "core: learned cube %d carries frame tag %d", ci, tag)
		}
	}
}

// checkLearnedConstraint verifies that a freshly learned clause (cube) is
// universally (existentially) reduced with respect to ≺ and mentions every
// variable at most once — the invariants Q-resolution must maintain, whose
// silent violation is exactly the learning-bug class the JAIR 2006
// soundness analysis warns about.
func (s *Solver) checkLearnedConstraint(lits []qbf.Lit, isCube bool) {
	if !s.opt.CheckInvariants || s.dbgPrefix == nil {
		return
	}
	if isCube {
		invariant.Must(invariant.CheckCubeReduced(s.dbgPrefix, lits), "core: learned cube")
	} else {
		invariant.Must(invariant.CheckClauseReduced(s.dbgPrefix, lits), "core: learned clause")
	}
}
