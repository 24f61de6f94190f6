package core

import "repro/internal/qbf"

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
//     visitWatches for why true universals must park the clause instead
//     of absorbing the watch. Universal reduction stays implicit:
//     the conflict test (Lemma 4) fires on "no unfalsified existential and
//     no true literal" regardless of unassigned universals, and the unit
//     test re-derives the ≺ side conditions by scanning the clause.
//   - A cube is the quantifier dual: two ≺-deepest unassigned universals
//     plus an existential guard, triggered by literals becoming true.
//
// One routine serves both kinds: visitWatches takes the primary quantifier
// (∃ for clauses, ∀ for cubes), initWatches reads it off the constraint,
// and both derive the per-kind values from it at entry.
//
// Watched literals sit at positions 0 and 1 of the constraint's literal
// array in the arena (position 0 only for unit-size constraints), so moving
// a watch is two word swaps and no auxiliary index. Watcher lists are keyed
// by the code of the assigned literal that triggers the visit: a clause
// watching w lives in watchCl[w^1] (visited when w is falsified, i.e. when
// w̄ is assigned), a cube watching w in watchCu[w] (visited when w is
// satisfied). Each entry carries a blocker literal — some other literal of
// the same constraint — whose satisfaction (clause) or falsification (cube)
// proves the constraint dormant without touching the arena, the classic
// MiniSat cache-miss dodge; its value is one load from the value table.
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
	blocker code
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
		if ev, ci := s.visitWatches(l, qbf.Exists); ev != evNone {
			return ev, ci
		}
		if ev, ci := s.visitWatches(l, qbf.Forall); ev != evNone {
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
func (s *Solver) satWalk(l code) bool {
	tag := 1 + s.trailPos[l.v()]
	for _, ci32 := range s.occ[l] {
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

// visitWatches processes the constraints of primary quantifier q whose
// watch the assignment of l just hit: for q = ∃ the clauses watching l̄,
// which l falsified; for q = ∀ the cubes watching l, which l satisfied.
// Each one gets its watch repaired or is found dormant, unit (Lemma 5, or
// its dual for cubes) or firing: a contradictory clause (Lemma 4), or a
// cube whose residual has no universal literal.
//
// The per-kind values are fixed at entry. A clause is dormant while one of
// its literals is true and is visited when a watch is falsified, so it is
// keyed by its watches' negations (the code m^1); it fires a conflict, and
// its unit rule makes the last open existential true. A cube is dormant
// while one of its literals is false and is visited when a watch is
// satisfied, so it is keyed by the watches themselves; it fires a
// solution, and its unit rule makes the last open universal false.
//
//qbf:hotpath
func (s *Solver) visitWatches(l code, q qbf.Quant) (event, int) {
	lists, hit, dormant, trig, par, fire := s.watchCl, l^1, vTrue, vFalse, code(1), evConflict
	if q == qbf.Forall {
		lists, hit, dormant, trig, par, fire = s.watchCu, l, vFalse, vTrue, 0, evSolution
	}
	ws := lists[l]
	j := 0
	for i := 0; i < len(ws); i++ {
		w := ws[i]
		if s.val[w.blocker] == dormant {
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
			// A single-literal constraint (a q literal, by reduction) was
			// hit: it fires. This entry and the rest keep their places.
			j += copy(ws[j:], ws[i:])
			lists[l] = ws[:j]
			return fire, ci
		}
		if s.ar.lit(ci, 0) == hit {
			s.ar.swapLits(ci, 0, 1)
		}
		other := s.ar.lit(ci, 0)
		if s.val[other] == dormant {
			ws[j] = watcher{w.c, other}
			j++
			continue
		}
		// Repair: move the hit watch to a q literal at positions ≥ 2 that
		// the trigger value has not reached. Only q literals may take over
		// a watch slot. A literal of the other quantifier that makes the
		// constraint dormant (a true universal in a clause, a false
		// existential in a cube) may not absorb the watch: backtracking
		// past it would revive hit q literals that no watch covers, and
		// their next hit would be a silent event. It parks the constraint
		// instead: the entry stays on the hit watch with the dormant
		// literal as blocker. That is sound because the blocker precedes
		// the hit watch on the trail, and backtracking pops trail suffixes
		// — whenever the blocker is unassigned, the parked watch is too.
		moved := false
		var park code // 0: none
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			mv := s.val[m]
			if mv != trig && s.quant[m.v()] == q {
				s.ar.swapLits(ci, 1, k)
				mi := m ^ par
				lists[mi] = append(lists[mi], watcher{w.c, other})
				moved = true
				break
			}
			if mv == dormant {
				park = m
				break
			}
		}
		if moved {
			continue
		}
		if park != 0 {
			ws[j] = watcher{w.c, park}
			j++
			continue
		}
		// No replacement and nothing to park on: positions ≥ 2 hold only
		// hit literals and unassigned literals of the other quantifier.
		if s.val[other] == trig || s.quant[other.v()] != q {
			// No open q literal and no dormant literal: reduction empties
			// the residual constraint, whatever its open literals of the
			// other quantifier are set to. The clause is contradictory
			// (Lemma 4), or the cube fires. Keep the watches — event
			// handling backtracks below the current level, undoing l.
			j += copy(ws[j:], ws[i:])
			lists[l] = ws[:j]
			return fire, ci
		}
		// other is the single open q literal. Unit rule: it is forced,
		// unless an unassigned literal m ≺ other blocks it — then m
		// becomes the guard: as a literal of the constraint it either
		// makes it dormant or re-triggers this check when hit, and
		// m ≺ other means it cannot stay unassigned behind other.
		blocked := false
		for k := 2; k < n; k++ {
			m := s.ar.lit(ci, k)
			if s.val[m] == undef && s.before(m.v(), other.v()) {
				s.ar.swapLits(ci, 1, k)
				mi := m ^ par
				lists[mi] = append(lists[mi], watcher{w.c, other})
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		s.assign(forced(other, dormant), reasonConstraint, ci)
		ws[j] = watcher{w.c, other}
		j++
	}
	lists[l] = ws[:j]
	return evNone, -1
}

// forced is the unit rule's assignment to the last open literal m of a
// constraint: the literal that gives m the value dormant, so m itself for
// a clause (dormant = vTrue) and m̄ for a cube.
func forced(m code, dormant int8) code {
	if dormant == vTrue {
		return m
	}
	return m ^ 1
}

// initWatches installs the watches of a freshly added constraint under the
// current assignment. Slot priority for a clause: unassigned existentials
// (the two ≺-deepest), then true literals (earliest assigned — the most
// durable blockers), then unassigned universals (sound guards: they either
// satisfy the clause or re-trigger on falsification), then false literals
// by descending trail position, so that in unit/conflicting states any
// backtrack that could revive the clause unassigns a watch first. Cubes
// use the quantifier dual, with the per-kind values of visitWatches. The
// caller handles degenerate states itself: an asserting learned constraint
// assigns its forced literal immediately, and a runtime-added clause is
// installed on the empty trail, where only a unit clause needs asserting
// (solve's assertRoot).
func (s *Solver) initWatches(ci int) {
	s.placeWatches(ci)
	s.attachWatches(ci)
}

// placeWatches moves the constraint's two best watch candidates, by the
// slot priority of initWatches, to positions 0 and 1.
func (s *Solver) placeWatches(ci int) {
	q, dormant := qbf.Exists, vTrue
	if s.ar.isCube(ci) {
		q, dormant = qbf.Forall, vFalse
	}
	n := s.ar.size(ci)
	if n == 1 {
		return
	}
	rank := func(k int) (int, int) {
		m := s.ar.lit(ci, k)
		mv, v := s.val[m], m.v()
		switch {
		case mv == undef && s.quant[v] == q:
			return 3, s.plevel[v] // deeper is better
		case mv == dormant:
			return 2, -s.trailPos[v] // earlier assigned is better
		case mv == undef:
			return 1, s.plevel[v]
		default:
			return 0, s.trailPos[v] // later hit is better
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
}

// attachWatches appends the watchers of the literals at positions 0 and 1
// (0 only, for a unit) to the watcher lists of the constraint's kind.
func (s *Solver) attachWatches(ci int) {
	lists, par := s.watchCl, code(1)
	if s.ar.isCube(ci) {
		lists, par = s.watchCu, 0
	}
	l0 := s.ar.lit(ci, 0)
	i0 := l0 ^ par
	if s.ar.size(ci) == 1 {
		lists[i0] = append(lists[i0], watcher{int32(ci), l0})
		return
	}
	l1 := s.ar.lit(ci, 1)
	i1 := l1 ^ par
	lists[i0] = append(lists[i0], watcher{int32(ci), l1})
	lists[i1] = append(lists[i1], watcher{int32(ci), l0})
}
