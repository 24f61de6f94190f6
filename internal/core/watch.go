package core

import (
	"slices"
	"sort"

	"repro/internal/qbf"
)

// This file is the quantifier-aware watched-literal propagation engine. It
// generalizes the classic two-watched-literal scheme to QCDCL over a
// partial prefix order ≺:
//
//   - A clause watches two ≺-deepest unfalsified existential literals. When
//     only one unfalsified existential remains, the second slot holds an
//     unassigned universal of the clause (the "universal guard": either it
//     satisfies the clause or its falsification re-triggers the generalized
//     unit rule of Lemma 5) or — in satisfied or event states — a falsified
//     literal parked behind a blocker. Watch repair only ever moves a watch
//     onto an unfalsified existential; see the repair comment in
//     visitClauseWatches for why true universals must park the clause
//     instead of absorbing the watch. Universal reduction stays implicit:
//     the conflict test (Lemma 4) fires on "no unfalsified existential and
//     no true literal" regardless of unassigned universals, and the unit
//     test re-derives the ≺ side conditions by scanning the clause.
//   - A cube is the quantifier dual: two ≺-deepest unassigned universals
//     plus an existential guard, triggered by literals becoming true.
//
// Watched literals sit at positions 0 and 1 of the constraint's literal
// array in the arena (position 0 only for unit-size constraints), so moving
// a watch is two word swaps and no auxiliary index. Watcher lists are keyed
// by the assigned literal that triggers the visit: a clause watching w lives
// in watchCl[litIdx(w.Neg())] (visited when w is falsified), a cube watching
// w in watchCu[litIdx(w)] (visited when w is satisfied). Each entry carries
// a blocker literal — some other literal of the same constraint — whose
// satisfaction (clause) or falsification (cube) proves the constraint
// dormant without touching the arena, the classic MiniSat cache-miss dodge.
//
// Every event a watcher visit reports is verified by a full scan of the
// constraint against the actual variable values, so a stale watch can defer
// an event but never fabricate one. Soundness does not depend on completeness of unit
// propagation — a deferred unit merely costs a decision — but it does
// depend on conflict detection for original clauses: the maintained
// invariant is that an unsatisfied original clause always watches its
// most recently falsifiable existential, so the assignment that falsifies
// the last one triggers the visit that reports the conflict. The qbfdebug
// deep checker (deepcheck_qbfdebug.go, checkWatchInvariants) recomputes
// this contract at every quiescent fixpoint.
//
// Visits may return an event mid-list: the remaining entries keep their
// watches and the unprocessed trail suffix keeps its queue position. This
// is sound because every literal left unprocessed was assigned at the
// current decision level, and event handling always backtracks below it (an
// asserting backjump satisfies blevel < lambda ≤ level; chronoFlip pops at
// least the current level; terminal events end the search), discarding the
// suffix wholesale.

// watcher is one watch-list entry: the constraint ref and the blocker.
type watcher struct {
	c       int32
	blocker int32
}

// propagateWatched runs the watcher engine to fixpoint: per dequeued
// literal, the original-clause satisfaction walk (residual-matrix and
// pure-literal bookkeeping), then the clause and cube watcher visits.
//
//qbf:hotpath
func (s *Solver) propagateWatched() (event, int) {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		if s.satWalk(l) {
			return evSolution, -1
		}
		if ev, ci := s.visitClauseWatches(l); ev != evNone {
			return ev, ci
		}
		if ev, ci := s.visitCubeWatches(l); ev != evNone {
			return ev, ci
		}
	}
	return evNone, -1
}

// satWalk takes the original clauses containing l (the watcher-engine
// occurrence lists hold originals only) that are still in the residual
// matrix out of it: each is tagged with one plus l's trail position and
// pushed on satStack, so the stack stays sorted by tag. It reports whether
// the residual matrix became empty — the base-case solution.
// unsatisfyFrom is the backtracking inverse.
//
//qbf:hotpath
func (s *Solver) satWalk(l qbf.Lit) bool {
	tag := 1 + s.trailPos[l.Var()]
	for _, ci32 := range s.occ[litIdx(l)] {
		ci := int(ci32)
		if s.ar.sat(ci) == 0 {
			s.ar.setSat(ci, tag)
			s.satStack = append(s.satStack, ci32)
			s.clauseSatisfied(ci)
		}
	}
	return s.numUnsatOriginal == 0
}

// unsatisfyFrom returns to the residual matrix every original clause that
// a literal at trail position end or later satisfied — the satStack suffix
// tagged above end — before the trail is cut to end. Backtracking thus
// costs one step per clause that re-enters the matrix and walks no
// occurrence list. clauseUnsatisfied only increments counters, so the pop
// order does not matter.
//
//qbf:hotpath
func (s *Solver) unsatisfyFrom(end int) {
	st := s.satStack
	for len(st) > 0 {
		ci := int(st[len(st)-1])
		if s.ar.sat(ci) <= end {
			break
		}
		s.ar.setSat(ci, 0)
		s.clauseUnsatisfied(ci)
		st = st[:len(st)-1]
	}
	s.satStack = st
}

// satInsert tags the original clause ci, which a literal already dequeued
// satisfies, and inserts it into satStack after every clause with a tag up
// to its own, keeping the stack sorted.
func (s *Solver) satInsert(ci, tag int) {
	s.ar.setSat(ci, tag)
	s.satStack = slices.Insert(s.satStack, s.satSearch(tag+1), int32(ci))
}

// satRemove deletes the tagged original clause ci from satStack, keeping
// the order of the others.
func (s *Solver) satRemove(ci int) {
	i := s.satSearch(s.ar.sat(ci))
	for s.satStack[i] != int32(ci) { // ci is present: an index panic here is a bookkeeping bug
		i++
	}
	s.satStack = slices.Delete(s.satStack, i, i+1)
}

// satSearch returns the first satStack index whose clause's satisfaction
// tag is at least tag (len(satStack) if none is).
func (s *Solver) satSearch(tag int) int {
	return sort.Search(len(s.satStack), func(i int) bool { return s.ar.sat(int(s.satStack[i])) >= tag })
}

// visitClauseWatches processes the clauses watching l.Neg(), which l just
// falsified: repair the watch, detect satisfaction, or report the clause
// unit (Lemma 5) or contradictory (Lemma 4).
//
//qbf:hotpath
func (s *Solver) visitClauseWatches(l qbf.Lit) (event, int) {
	idx := litIdx(l)
	ws := s.watchCl[idx]
	j := 0
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if s.litValue(qbf.Lit(w.blocker)) == vTrue { //lint:allow L2 round-trip decode of a stored watcher blocker
			ws[j] = w
			j++
			continue
		}
		ci := int(w.c)
		if s.ar.deleted(ci) {
			continue // drop the entry; compaction purges the stragglers
		}
		n := s.ar.size(ci)
		if n == 1 {
			// Single-literal clause (an existential, by universal
			// reduction) falsified: contradictory.
			ws[j] = w
			j++
			for i++; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			s.watchCl[idx] = ws[:j]
			return evConflict, ci
		}
		fw := l.Neg()
		if s.ar.lit(ci, 0) == fw {
			s.ar.swapLits(ci, 0, 1)
		}
		other := s.ar.lit(ci, 0)
		if s.litValue(other) == vTrue {
			ws[j] = watcher{w.c, int32(other)}
			j++
			continue
		}
		// Repair: move the falsified watch to an unfalsified existential at
		// positions ≥ 2. Only existentials may take over a watch slot: a
		// true universal satisfies the clause but may not absorb the watch —
		// backtracking past it would revive falsified existentials that no
		// watch covers, and their next falsification would be a silent
		// conflict. A true universal instead parks the clause: the entry
		// stays on the falsified watch with the satisfier as blocker, which
		// is sound because the satisfier precedes the just-falsified watch
		// on the trail, and backtracking pops trail suffixes — whenever the
		// satisfier is unassigned, the parked watch is unassigned too.
		moved := false
		var satBy qbf.Lit
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			mv := s.litValue(m)
			if mv != vFalse && s.quant[m.Var()] == qbf.Exists {
				s.ar.swapLits(ci, 1, k)
				mi := litIdx(m.Neg())
				s.watchCl[mi] = append(s.watchCl[mi], watcher{w.c, int32(other)})
				moved = true
				break
			}
			if mv == vTrue {
				satBy = m
				break
			}
		}
		if moved {
			continue
		}
		if satBy != 0 {
			ws[j] = watcher{w.c, int32(satBy)}
			j++
			continue
		}
		// No replacement and no satisfier: positions ≥ 2 hold only false
		// literals and unassigned universals.
		if s.litValue(other) == vFalse || s.quant[other.Var()] == qbf.Forall {
			// No unfalsified existential and no true literal: the residual
			// clause is contradictory (Lemma 4) no matter how its unassigned
			// universals are set. Keep the watches — conflict handling
			// backtracks below the current level, unassigning fw.
			ws[j] = w
			j++
			for i++; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			s.watchCl[idx] = ws[:j]
			return evConflict, ci
		}
		// other is the single unfalsified existential. Generalized unit
		// rule: forced, unless an unassigned universal m ≺ other blocks it —
		// then m becomes the universal guard: as a literal of the clause it
		// either satisfies the clause or re-triggers this check when
		// falsified, and m ≺ other means it cannot stay unassigned behind
		// other.
		blocked := false
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			if s.value[m.Var()] == undef && s.before(m.Var(), other.Var()) {
				s.ar.swapLits(ci, 1, k)
				mi := litIdx(m.Neg())
				s.watchCl[mi] = append(s.watchCl[mi], watcher{w.c, int32(other)})
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		s.assign(other, reasonConstraint, ci)
		ws[j] = watcher{w.c, int32(other)}
		j++
	}
	s.watchCl[idx] = ws[:j]
	return evNone, -1
}

// visitCubeWatches processes the cubes watching l, which l just satisfied:
// the quantifier dual of visitClauseWatches. A cube with a false literal is
// dead; one whose residual has no universal literal fires as a solution;
// one reduced to a single unassigned universal forces its negation (the
// dual unit rule), unless an unassigned existential ≺ it blocks.
//
//qbf:hotpath
func (s *Solver) visitCubeWatches(l qbf.Lit) (event, int) {
	idx := litIdx(l)
	ws := s.watchCu[idx]
	j := 0
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if s.litValue(qbf.Lit(w.blocker)) == vFalse { //lint:allow L2 round-trip decode of a stored watcher blocker
			ws[j] = w
			j++
			continue
		}
		ci := int(w.c)
		if s.ar.deleted(ci) {
			continue
		}
		n := s.ar.size(ci)
		if n == 1 {
			// Single-literal cube (a universal, by existential reduction)
			// satisfied: the good fires.
			ws[j] = w
			j++
			for i++; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			s.watchCu[idx] = ws[:j]
			return evSolution, ci
		}
		tw := l
		if s.ar.lit(ci, 0) == tw {
			s.ar.swapLits(ci, 0, 1)
		}
		other := s.ar.lit(ci, 0)
		if s.litValue(other) == vFalse {
			ws[j] = watcher{w.c, int32(other)}
			j++
			continue
		}
		// Repair: move the satisfied watch to an unsatisfied universal at
		// positions ≥ 2 — the quantifier dual of the clause rule: only
		// universals may take over a cube watch slot. A false existential
		// kills the cube but may not absorb the watch (backtracking past it
		// would revive satisfied universals no watch covers); it parks the
		// cube instead, keeping the entry on the satisfied watch with the
		// death witness as blocker — sound by the same trail-suffix
		// argument as the clause side.
		moved := false
		var deadBy qbf.Lit
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			mv := s.litValue(m)
			if mv != vTrue && s.quant[m.Var()] == qbf.Forall {
				s.ar.swapLits(ci, 1, k)
				mi := litIdx(m)
				s.watchCu[mi] = append(s.watchCu[mi], watcher{w.c, int32(other)})
				moved = true
				break
			}
			if mv == vFalse {
				deadBy = m
				break
			}
		}
		if moved {
			continue
		}
		if deadBy != 0 {
			ws[j] = watcher{w.c, int32(deadBy)}
			j++
			continue
		}
		// No replacement and no death witness: positions ≥ 2 hold only true
		// literals and unassigned existentials.
		if s.litValue(other) == vTrue || s.quant[other.Var()] == qbf.Exists {
			// No false literal and no unassigned universal: existential
			// reduction empties the residual cube — the good fires.
			ws[j] = w
			j++
			for i++; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			s.watchCu[idx] = ws[:j]
			return evSolution, ci
		}
		// other is the single unassigned universal: the universal player
		// must falsify it, unless an unassigned existential m ≺ other keeps
		// the cube from reducing to the unit [other] — then m becomes the
		// existential guard.
		blocked := false
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			if s.value[m.Var()] == undef && s.before(m.Var(), other.Var()) {
				s.ar.swapLits(ci, 1, k)
				mi := litIdx(m)
				s.watchCu[mi] = append(s.watchCu[mi], watcher{w.c, int32(other)})
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		s.assign(other.Neg(), reasonConstraint, ci)
		ws[j] = watcher{w.c, int32(other)}
		j++
	}
	s.watchCu[idx] = ws[:j]
	return evNone, -1
}

// initWatches installs the watches of a freshly added constraint under the
// current assignment. Slot priority for a clause: unassigned existentials
// (the two ≺-deepest), then true literals (earliest assigned — the most
// durable blockers), then unassigned universals (sound guards: they either
// satisfy the clause or re-trigger on falsification), then false literals
// by descending trail position, so that in unit/conflicting states any
// backtrack that could revive the clause unassigns a watch first. Cubes
// use the quantifier dual. The caller handles degenerate states itself: an
// asserting learned constraint assigns its forced literal immediately, and
// an imported one is woken by a full scan right after installation.
func (s *Solver) initWatches(ci int) {
	n := s.ar.size(ci)
	isCube := s.ar.isCube(ci)
	if n == 1 {
		l := s.ar.lit(ci, 0)
		if isCube {
			s.watchCu[litIdx(l)] = append(s.watchCu[litIdx(l)], watcher{int32(ci), int32(l)})
		} else {
			mi := litIdx(l.Neg())
			s.watchCl[mi] = append(s.watchCl[mi], watcher{int32(ci), int32(l)})
		}
		return
	}
	rank := func(k int) (int, int) {
		m := s.ar.lit(ci, k)
		mv := s.litValue(m)
		prim := (s.quant[m.Var()] == qbf.Exists) != isCube
		dormant := mv == vTrue
		if isCube {
			dormant = mv == vFalse
		}
		switch {
		case mv == undef && prim:
			return 3, s.plevel[m.Var()] // deeper is better
		case dormant:
			return 2, -s.trailPos[m.Var()] // earlier assigned is better
		case mv == undef:
			return 1, s.plevel[m.Var()]
		default:
			return 0, s.trailPos[m.Var()] // later falsified is better
		}
	}
	w0, w1 := 0, 1
	c0, t0 := rank(0)
	c1, t1 := rank(1)
	if c1 > c0 || (c1 == c0 && t1 > t0) {
		w0, w1 = w1, w0
		c0, t0, c1, t1 = c1, t1, c0, t0
	}
	for k := 2; k < n; k++ {
		ck, tk := rank(k)
		if ck > c0 || (ck == c0 && tk > t0) {
			w1, c1, t1 = w0, c0, t0
			w0, c0, t0 = k, ck, tk
		} else if ck > c1 || (ck == c1 && tk > t1) {
			w1, c1, t1 = k, ck, tk
		}
	}
	s.ar.swapLits(ci, 0, w0)
	if w1 == 0 {
		w1 = w0 // position 0's literal moved to w0 in the swap above
	}
	s.ar.swapLits(ci, 1, w1)
	l0, l1 := s.ar.lit(ci, 0), s.ar.lit(ci, 1)
	if isCube {
		s.watchCu[litIdx(l0)] = append(s.watchCu[litIdx(l0)], watcher{int32(ci), int32(l1)})
		s.watchCu[litIdx(l1)] = append(s.watchCu[litIdx(l1)], watcher{int32(ci), int32(l0)})
	} else {
		i0, i1 := litIdx(l0.Neg()), litIdx(l1.Neg())
		s.watchCl[i0] = append(s.watchCl[i0], watcher{int32(ci), int32(l1)})
		s.watchCl[i1] = append(s.watchCl[i1], watcher{int32(ci), int32(l0)})
	}
}
