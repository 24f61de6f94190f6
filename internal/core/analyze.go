package core

import (
	"repro/internal/invariant"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// analysis is the outcome of conflict/solution analysis.
type analysis struct {
	// terminal means the whole QBF is decided: a contradictory resolvent
	// was derived (conflict side) or a cube without universal literals
	// (solution side).
	terminal bool
	// asserting means lits is a learnable constraint that becomes unit at
	// blevel, forcing force.
	asserting bool
	lits      []qbf.Lit
	force     qbf.Lit
	blevel    int
	// frame is the deepest assumption frame the derivation resolved with:
	// the maximum frame tag over the seed constraint and every reason
	// constraint entering the Q-resolution. 0 outside incremental sessions
	// and always 0 on the solution side (cubes survive pops; see
	// addLearned).
	frame int
}

// workSet is a sparse literal set keyed by variable — the working
// resolvent of the analysis loops. The arrays are owned by the Solver and
// reused across analyses (cleared through the vars list), which keeps the
// hot solution-analysis path free of map operations.
type workSet struct {
	lit  []qbf.Lit // indexed by variable; 0 = absent
	pos  []int32   // indexed by variable: its index in vars while present
	vars []qbf.Var // current members, unordered
	drop []qbf.Var // reduceSet's scratch list of members to delete
}

// newWorkSet returns the solver's reusable working set, cleared.
func (s *Solver) newWorkSet() *workSet {
	if s.ws.lit == nil {
		s.ws.lit = make([]qbf.Lit, s.nVars+1)
		s.ws.pos = make([]int32, s.nVars+1)
	}
	for _, v := range s.ws.vars {
		s.ws.lit[v] = 0
	}
	s.ws.vars = s.ws.vars[:0]
	return &s.ws
}

func (w *workSet) has(v qbf.Var) bool    { return w.lit[v] != 0 }
func (w *workSet) get(v qbf.Var) qbf.Lit { return w.lit[v] }

// add inserts l, overwriting any literal of the same variable (callers
// check for tautologies before resolving).
func (w *workSet) add(l qbf.Lit) {
	v := l.Var()
	if w.lit[v] == 0 {
		w.pos[v] = int32(len(w.vars))
		w.vars = append(w.vars, v)
	}
	w.lit[v] = l
}

// del removes v's literal; the last member moves into its slot.
func (w *workSet) del(v qbf.Var) {
	if w.lit[v] == 0 {
		return
	}
	w.lit[v] = 0
	i, last := w.pos[v], w.vars[len(w.vars)-1]
	w.vars[i] = last
	w.pos[last] = i
	w.vars = w.vars[:len(w.vars)-1]
}

func (w *workSet) slice() []qbf.Lit {
	out := make([]qbf.Lit, 0, len(w.vars))
	for _, v := range w.vars {
		out = append(out, w.lit[v])
	}
	return out
}

// universalReduceSet applies Lemma 3 to the working clause: universal
// literals with no existential literal of the set in their scope are
// removed.
func (s *Solver) universalReduceSet(w *workSet) { s.reduceSet(w, qbf.Exists) }

// existentialReduceSet is the dual reduction for working cubes: existential
// literals with no universal literal of the set in their scope are removed.
func (s *Solver) existentialReduceSet(w *workSet) { s.reduceSet(w, qbf.Forall) }

// reduceSet removes every member of w whose quantifier is not keep and
// which has no keep member in its scope. The block of each keep member and
// the block's ancestors get this call's stamp; a walk stops at a block that
// is already stamped, so marking costs one step per block. A member of the
// other quantifier has a keep member in its scope exactly when its block is
// stamped: its block is then an ancestor of the keep member's block, and
// because the two quantifiers differ, an alternation separates them, so the
// ancestor's prefix level is strictly smaller, as ≺ requires. The dropped
// members are deleted in w.vars order.
//
//qbf:hotpath
func (s *Solver) reduceSet(w *workSet, keep qbf.Quant) {
	s.stampGen++
	gen := s.stampGen
	for _, v := range w.vars {
		if s.quant[v] != keep {
			continue
		}
		for b := s.blockOf[v]; b >= 0 && s.blocks[b].stamp != gen; b = s.blocks[b].parent {
			s.blocks[b].stamp = gen
		}
	}
	drop := w.drop[:0]
	for _, v := range w.vars {
		if s.quant[v] != keep && s.blocks[s.blockOf[v]].stamp != gen {
			drop = append(drop, v)
		}
	}
	for _, v := range drop {
		w.del(v)
	}
	w.drop = drop
	if len(drop) > 0 {
		kind := int64(0) // universal reduction of a clause
		if keep == qbf.Forall {
			kind = 1 // existential reduction of a cube
		}
		s.emitEv(telemetry.KindReduce, 0, int64(len(drop)), kind)
	}
}

// analyzeConflict derives a learned clause from the conflicting clause ci
// by Q-resolution on existential unit-propagated literals, universally
// reducing after every step.
func (s *Solver) analyzeConflict(ci int) analysis {
	w := s.newWorkSet()
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		w.add(s.ar.lit(ci, k))
	}
	s.universalReduceSet(w)
	s.ar.bumpActivity(ci)
	frame := s.ar.frame(ci)

	tried := make(map[qbf.Var]bool)
	for {
		if a, done := s.clauseVerdict(w); done {
			a.frame = frame
			return a
		}
		pivot, ok := s.pickClausePivot(w, tried)
		if !ok {
			return analysis{lits: w.slice(), frame: frame} // non-asserting resolvent
		}
		v := pivot.Var()
		rc := s.reasonC[v]
		s.ar.bumpActivity(rc)
		if f := s.ar.frame(rc); f > frame {
			frame = f
		}
		w.del(v)
		for k, n := 0, s.ar.size(rc); k < n; k++ {
			m := s.ar.lit(rc, k)
			if m.Var() == v {
				continue
			}
			w.add(m)
		}
		s.universalReduceSet(w)
	}
}

// pickClausePivot selects the deepest-on-trail existential literal of w
// whose variable was unit-propagated by a clause and whose reason does not
// introduce a (long-distance) tautology into w.
func (s *Solver) pickClausePivot(w *workSet, tried map[qbf.Var]bool) (qbf.Lit, bool) {
	best := qbf.NoLit
	bestPos := -1
	for _, v := range w.vars {
		l := w.get(v)
		if tried[v] || s.quant[v] != qbf.Exists || s.value[v] == undef {
			continue
		}
		if s.reason[v] != reasonConstraint || s.ar.isCube(s.reasonC[v]) {
			continue
		}
		if s.trailPos[v] > bestPos {
			// Tautology check: resolving must not put z and z̄ in w.
			ok := true
			rc := s.reasonC[v]
			for k, n := 0, s.ar.size(rc); k < n; k++ {
				m := s.ar.lit(rc, k)
				if m.Var() == v {
					continue
				}
				if prev := w.get(m.Var()); prev != 0 && prev != m {
					ok = false
					break
				}
			}
			if ok {
				best, bestPos = l, s.trailPos[v]
			} else {
				tried[v] = true
			}
		}
	}
	return best, bestPos >= 0
}

// clauseVerdict checks the working clause for the two stopping conditions:
// a contradictory resolvent (the formula is false) or an asserting clause.
func (s *Solver) clauseVerdict(w *workSet) (analysis, bool) {
	lambda := -1
	var lstar qbf.Lit
	unique := true
	anyE := false
	for _, v := range w.vars {
		l := w.get(v)
		if s.quant[v] != qbf.Exists {
			continue
		}
		anyE = true
		if s.value[v] == undef {
			// An unassigned existential can only enter through a reason
			// clause whose universal side conditions held; treat the
			// resolvent as non-asserting.
			return analysis{}, false
		}
		dl := s.dlevel[v]
		switch {
		case dl > lambda:
			lambda, lstar, unique = dl, l, true
		case dl == lambda:
			unique = false
		}
	}
	if !anyE {
		// Contradictory resolvent: the QBF is false (Lemma 4).
		return analysis{terminal: true}, true
	}
	if lambda == 0 {
		// Every existential literal is falsified at the root level; the
		// residual clause at level 0 is contradictory.
		return analysis{terminal: true}, true
	}
	if !unique {
		return analysis{}, false
	}
	// Compute the backjump level and validate the remaining literals.
	blevel := 0
	for _, v := range w.vars {
		l := w.get(v)
		if l == lstar {
			continue
		}
		switch s.litValue(l) {
		case vTrue:
			return analysis{}, false // satisfied resolvent can't assert
		case vFalse:
			// A universal literal with v ⊀ |lstar| may lose its
			// assignment at the backjump without blocking the unit rule,
			// so it does not bound the backjump level; every existential
			// literal must stay falsified, and so must the universal
			// literals in whose scope lstar lies.
			if s.quant[v] == qbf.Exists || s.before(v, lstar.Var()) {
				if s.dlevel[v] > blevel {
					blevel = s.dlevel[v]
				}
			}
		default:
			// Unassigned universal literal: it must not block the unit
			// propagation of lstar after the backjump.
			if s.before(v, lstar.Var()) {
				return analysis{}, false
			}
		}
	}
	if blevel >= lambda {
		return analysis{}, false
	}
	return analysis{asserting: true, lits: w.slice(), force: lstar, blevel: blevel}, true
}

// analyzeSolution derives a learned cube. ci is the id of a cube whose
// literals are all true, or -1 when the matrix became empty, in which case
// the initial good is a set of true literals covering every original
// clause (Section III).
func (s *Solver) analyzeSolution(ci int) analysis {
	w := s.newWorkSet()
	if ci >= 0 {
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			w.add(s.ar.lit(ci, k))
		}
		s.ar.bumpActivity(ci)
	} else {
		s.coverCube(w)
	}
	s.existentialReduceSet(w)

	tried := make(map[qbf.Var]bool)
	for {
		if a, done := s.cubeVerdict(w); done {
			return a
		}
		pivot, ok := s.pickCubePivot(w, tried)
		if !ok {
			return analysis{lits: w.slice()}
		}
		v := pivot.Var()
		rc := s.reasonC[v]
		s.ar.bumpActivity(rc)
		w.del(v)
		for k, n := 0, s.ar.size(rc); k < n; k++ {
			m := s.ar.lit(rc, k)
			if m.Var() == v {
				continue
			}
			w.add(m)
		}
		s.existentialReduceSet(w)
	}
}

// coverCube fills w with true literals covering every original clause: the
// initial good of Section III. Literal choice matters a great deal for how
// general the learned good is: existential literals whose block has no
// universal below it in the quantifier tree are deleted by existential
// reduction, so they are preferred over anything else (they make the good
// strictly smaller); after that, literals already chosen, then literals
// assigned at the outermost level.
func (s *Solver) coverCube(w *workSet) {
	for ci := 0; ci < s.origEnd; ci = s.ar.next(ci) {
		s.coverClause(w, ci)
	}
	// Incremental sessions keep runtime-added original clauses above
	// origEnd, interleaved with learned constraints; the cover must span
	// them too — a cube is an implicant of the whole current matrix. The
	// maintained list reaches them without walking the learned region.
	for _, ci := range s.runtimeOrig {
		s.coverClause(w, ci)
	}
}

// coverClause extends the cover w to the original clause ci, choosing the
// best true literal by the (class, pure, dlevel) key. A true literal that
// is statically reducible or already in w ends the scan: either way the
// clause adds nothing to the cover.
func (s *Solver) coverClause(w *workSet, ci int) {
	var best qbf.Lit
	bestKey := [3]int{2, 2, int(^uint(0) >> 1)} // (class, pure, dlevel); lower wins
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		l := s.ar.lit(ci, k)
		if s.litValue(l) != vTrue {
			continue
		}
		if s.eReducible[l.Var()] || w.get(l.Var()) == l {
			// Either w already covers the clause, or a statically
			// reducible existential would be chosen — and adding it then
			// existential-reducing would delete it again (no universal
			// can follow it), so the insertion is skipped: the resulting
			// set equals the reduction of a genuine cover and is
			// therefore a sound good.
			return
		}
		// Preference classes: existentials may be deleted by the
		// set-level reduction; universal literals never are. Within a
		// class, avoid pure-assigned literals — their decision level is
		// an artifact of when purity was detected, often far deeper than
		// the variable's prefix position, and it poisons the backjump
		// level of the learned good.
		class := 0
		if s.quant[l.Var()] == qbf.Forall {
			class = 1
		}
		pure := 0
		if s.reason[l.Var()] == reasonPure {
			pure = 1
		}
		key := [3]int{class, pure, s.dlevel[l.Var()]}
		if key[0] < bestKey[0] ||
			(key[0] == bestKey[0] && (key[1] < bestKey[1] ||
				(key[1] == bestKey[1] && key[2] < bestKey[2]))) {
			best, bestKey = l, key
		}
	}
	if best == qbf.NoLit {
		invariant.Violated("core: coverCube called with an unsatisfied original clause")
	}
	w.add(best)
}

// pickCubePivot selects the deepest-on-trail universal literal of w whose
// variable was propagated by a cube.
func (s *Solver) pickCubePivot(w *workSet, tried map[qbf.Var]bool) (qbf.Lit, bool) {
	best := qbf.NoLit
	bestPos := -1
	for _, v := range w.vars {
		l := w.get(v)
		if tried[v] || s.quant[v] != qbf.Forall || s.value[v] == undef {
			continue
		}
		if s.reason[v] != reasonConstraint || !s.ar.isCube(s.reasonC[v]) {
			continue
		}
		if s.trailPos[v] > bestPos {
			ok := true
			rc := s.reasonC[v]
			for k, n := 0, s.ar.size(rc); k < n; k++ {
				m := s.ar.lit(rc, k)
				if m.Var() == v {
					continue
				}
				if prev := w.get(m.Var()); prev != 0 && prev != m {
					ok = false
					break
				}
			}
			if ok {
				best, bestPos = l, s.trailPos[v]
			} else {
				tried[v] = true
			}
		}
	}
	return best, bestPos >= 0
}

// cubeVerdict checks the working cube for its stopping conditions: a cube
// with no universal literal (the formula is true) or an asserting cube.
func (s *Solver) cubeVerdict(w *workSet) (analysis, bool) {
	lambda := -1
	var ustar qbf.Lit
	unique := true
	anyU := false
	for _, v := range w.vars {
		l := w.get(v)
		if s.quant[v] != qbf.Forall {
			continue
		}
		anyU = true
		if s.value[v] == undef {
			return analysis{}, false
		}
		dl := s.dlevel[v]
		switch {
		case dl > lambda:
			lambda, ustar, unique = dl, l, true
		case dl == lambda:
			unique = false
		}
	}
	if !anyU {
		// Existential reduction of a universal-free cube empties it: the
		// QBF is true.
		return analysis{terminal: true}, true
	}
	if lambda == 0 {
		return analysis{terminal: true}, true
	}
	if !unique {
		return analysis{}, false
	}
	blevel := 0
	for _, v := range w.vars {
		l := w.get(v)
		if l == ustar {
			continue
		}
		switch s.litValue(l) {
		case vFalse:
			return analysis{}, false
		case vTrue:
			// Dual of the clause case: an existential literal with
			// v ⊀ |ustar| may become unassigned at the backjump without
			// blocking the dual unit rule, so it does not bound the
			// backjump level.
			if s.quant[v] == qbf.Forall || s.before(v, ustar.Var()) {
				if s.dlevel[v] > blevel {
					blevel = s.dlevel[v]
				}
			}
		default:
			// Unassigned existential literal (universals were handled
			// above): it must not block the dual unit rule on ustar after
			// the backjump.
			if s.before(v, ustar.Var()) {
				return analysis{}, false
			}
		}
	}
	if blevel >= lambda {
		return analysis{}, false
	}
	return analysis{asserting: true, lits: w.slice(), force: ustar.Neg(), blevel: blevel}, true
}

// handleConflict processes a conflicting clause: learn and backjump if an
// asserting clause was derived, otherwise flip the deepest open existential
// decision. It returns false when the formula is proven false.
func (s *Solver) handleConflict(ci int) bool {
	if s.ar.deleted(ci) {
		// An emptied constraint would seed an empty working set, which
		// analysis reads as a terminal verdict — a silent wrong answer.
		// solve() guarantees nothing (in particular not the memory
		// governor) runs between the conflict event and this call.
		invariant.Violated("core: conflict analysis over deleted constraint %d", ci)
	}
	if !s.opt.DisableClauseLearning {
		a := s.analyzeConflict(ci)
		if a.terminal {
			return false
		}
		if a.asserting {
			s.stats.Backjumps++
			s.backtrack(a.blevel)
			id := s.addLearned(a.lits, false, a.frame)
			s.assign(a.force, reasonConstraint, id)
			s.bumpConstraint(a.lits)
			s.reduceDB(false)
			s.maybeRestart()
			return true
		}
	}
	return s.chronoFlip(qbf.Exists)
}

// handleSolution processes a solution event (cube fired, or matrix empty
// when ci < 0). It returns false when the formula is proven true.
func (s *Solver) handleSolution(ci int) bool {
	if ci >= 0 && s.ar.deleted(ci) {
		// Dual of the handleConflict guard: a deleted fired cube reads as
		// a terminal True. ci < 0 is the matrix-empty solution, which
		// carries no constraint.
		invariant.Violated("core: solution analysis over deleted constraint %d", ci)
	}
	if !s.opt.DisableCubeLearning {
		a := s.analyzeSolution(ci)
		if a.terminal {
			return false
		}
		if a.asserting {
			s.stats.Backjumps++
			s.backtrack(a.blevel)
			id := s.addLearned(a.lits, true, 0)
			s.assign(a.force, reasonConstraint, id)
			s.bumpConstraint(a.lits)
			s.reduceDB(true)
			s.maybeRestart()
			return true
		}
	}
	return s.chronoFlip(qbf.Forall)
}

// chronoFlip backtracks chronologically: it pops levels until the deepest
// unflipped decision of quantifier kind q, flips it, and reports success;
// if no such decision exists the search is over (false is returned).
// Decisions of the other kind and already-flipped decisions are popped:
// a conflict propagates past universal choices (the whole ∀-subtree is
// false) and a solution past existential ones, symmetrically.
func (s *Solver) chronoFlip(q qbf.Quant) bool {
	for lvl := s.level; lvl >= 1; lvl-- {
		l := s.trail[s.levelStart[lvl]]
		v := l.Var()
		if s.reason[v] == reasonDecision && s.quant[v] == q {
			s.backtrack(lvl - 1)
			s.level++
			s.levelStart = append(s.levelStart, len(s.trail))
			s.assign(l.Neg(), reasonFlipped, -1)
			s.stats.ChronoBacktracks++
			return true
		}
	}
	return false
}
