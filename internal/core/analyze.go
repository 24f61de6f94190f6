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
	lits      []code
	force     code
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
	lit  []code   // indexed by variable; 0 = absent
	pos  []int32  // indexed by variable: its index in vars while present
	vars []uint32 // current members' variables, unordered
	drop []uint32 // reduceSet's scratch list of members to delete
}

// newWorkSet returns the solver's reusable working set, cleared.
func (s *Solver) newWorkSet() *workSet {
	if s.ws.lit == nil {
		s.ws.lit = make([]code, s.nVars+1)
		s.ws.pos = make([]int32, s.nVars+1)
	}
	for _, v := range s.ws.vars {
		s.ws.lit[v] = 0
	}
	s.ws.vars = s.ws.vars[:0]
	return &s.ws
}

func (w *workSet) has(v uint32) bool { return w.lit[v] != 0 }
func (w *workSet) get(v uint32) code { return w.lit[v] }

// add inserts l, overwriting any literal of the same variable (callers
// check for tautologies before resolving).
func (w *workSet) add(l code) {
	v := l.v()
	if w.lit[v] == 0 {
		w.pos[v] = int32(len(w.vars))
		w.vars = append(w.vars, v)
	}
	w.lit[v] = l
}

// del removes v's literal; the last member moves into its slot.
func (w *workSet) del(v uint32) {
	if w.lit[v] == 0 {
		return
	}
	w.lit[v] = 0
	i, last := w.pos[v], w.vars[len(w.vars)-1]
	w.vars[i] = last
	w.pos[last] = i
	w.vars = w.vars[:len(w.vars)-1]
}

func (w *workSet) slice() []code {
	out := make([]code, 0, len(w.vars))
	for _, v := range w.vars {
		out = append(out, w.lit[v])
	}
	return out
}

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

// analyze derives a learned constraint of primary quantifier q from the
// event's constraint ci: a clause (q = ∃) by Q-resolution on existential
// unit-propagated literals, a cube (q = ∀) by the dual term resolution on
// universal ones, reducing after every step (Lemma 3 and its dual). ci is
// the conflicting clause or the fired cube, or -1 when the matrix became
// empty; the initial good is then a set of true literals covering every
// original clause (Section III). The result's frame is the deepest frame
// tag among ci and the reasons resolved with; every cube's tag is 0.
func (s *Solver) analyze(ci int, q qbf.Quant) analysis {
	w := s.newWorkSet()
	frame := 0
	if ci >= 0 {
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			w.add(s.ar.lit(ci, k))
		}
		s.ar.bumpActivity(ci)
		frame = s.ar.frame(ci)
	} else {
		s.coverCube(w)
	}
	s.reduceSet(w, q)

	tried := make(map[uint32]bool)
	for {
		if a, done := s.verdict(w, q); done {
			a.frame = frame
			return a
		}
		pivot, ok := s.pickPivot(w, tried, q)
		if !ok {
			return analysis{lits: w.slice(), frame: frame} // non-asserting resolvent
		}
		v := pivot.v()
		rc := s.reasonC[v]
		s.ar.bumpActivity(rc)
		if f := s.ar.frame(rc); f > frame {
			frame = f
		}
		w.del(v)
		for k, n := 0, s.ar.size(rc); k < n; k++ {
			m := s.ar.lit(rc, k)
			if m.v() == v {
				continue
			}
			w.add(m)
		}
		s.reduceSet(w, q)
	}
}

// pickPivot selects the deepest-on-trail q literal of w whose variable was
// unit-propagated by a constraint of its own kind (a clause for q = ∃, a
// cube for q = ∀) and whose reason does not introduce a (long-distance)
// tautology into w.
func (s *Solver) pickPivot(w *workSet, tried map[uint32]bool, q qbf.Quant) (code, bool) {
	cube := q == qbf.Forall
	best := code(0)
	bestPos := -1
	for _, v := range w.vars {
		l := w.get(v)
		if tried[v] || s.quant[v] != q || s.val[l] == undef {
			continue
		}
		if s.reason[v] != reasonConstraint || s.ar.isCube(s.reasonC[v]) != cube {
			continue
		}
		if s.trailPos[v] > bestPos {
			// Tautology check: resolving must not put z and z̄ in w.
			ok := true
			rc := s.reasonC[v]
			for k, n := 0, s.ar.size(rc); k < n; k++ {
				m := s.ar.lit(rc, k)
				if m.v() == v {
					continue
				}
				if prev := w.get(m.v()); prev != 0 && prev != m {
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

// verdict checks the working constraint of primary quantifier q for its
// stopping conditions: a terminal one — a clause with no existential
// literal is contradictory (Lemma 4, the formula is false), a cube with no
// universal literal reduces to the empty cube (the formula is true) — or
// an asserting one, which after the backjump is unit on its deepest q
// literal. The per-kind values are those of visitWatches: a clause is
// dormant under a true literal and hit by false ones, a cube the reverse.
func (s *Solver) verdict(w *workSet, q qbf.Quant) (analysis, bool) {
	dormant, trig := vTrue, vFalse
	if q == qbf.Forall {
		dormant, trig = vFalse, vTrue
	}
	lambda := -1
	var star code
	unique := true
	anyQ := false
	for _, v := range w.vars {
		l := w.get(v)
		if s.quant[v] != q {
			continue
		}
		anyQ = true
		if s.val[l] == undef {
			// An unassigned q literal can only enter through a reason
			// whose side conditions held; treat the resolvent as
			// non-asserting.
			return analysis{}, false
		}
		dl := s.dlevel[v]
		switch {
		case dl > lambda:
			lambda, star, unique = dl, l, true
		case dl == lambda:
			unique = false
		}
	}
	if !anyQ || lambda == 0 {
		// No q literal is left — the reduced clause is contradictory
		// (Lemma 4), the reduced cube empty — or every q literal was hit
		// at the root level, which no backjump undoes.
		return analysis{terminal: true}, true
	}
	if !unique {
		return analysis{}, false
	}
	// Compute the backjump level and validate the remaining literals.
	blevel := 0
	for _, v := range w.vars {
		l := w.get(v)
		if l == star {
			continue
		}
		switch s.val[l] {
		case dormant:
			return analysis{}, false // a dormant resolvent can't assert
		case trig:
			// A literal of the other quantifier with v ⊀ |star| may lose
			// its assignment at the backjump without blocking the unit
			// rule, so it does not bound the backjump level; every q
			// literal must stay hit, and so must the other-quantifier
			// literals in whose scope star lies.
			if s.quant[v] == q || s.before(v, star.v()) {
				if s.dlevel[v] > blevel {
					blevel = s.dlevel[v]
				}
			}
		default:
			// Unassigned literal of the other quantifier: it must not
			// block the unit rule on star after the backjump.
			if s.before(v, star.v()) {
				return analysis{}, false
			}
		}
	}
	if blevel >= lambda {
		return analysis{}, false
	}
	return analysis{asserting: true, lits: w.slice(), force: forced(star, dormant), blevel: blevel}, true
}

// coverCube fills w with true literals covering every original clause: the
// initial good of Section III. Literal choice matters a great deal for how
// general the learned good is: existential literals whose block has no
// universal below it in the quantifier tree are deleted by existential
// reduction, so they are preferred over anything else (they make the good
// strictly smaller); after that, literals already chosen, then literals
// assigned at the outermost level.
//
// A clause whose literals are all eReducible adds nothing (its true
// literal is reducible), so the walk visits only the frames' cover lists,
// in depth order: the base's starts with the construction-time originals
// in arena order. Incremental sessions keep runtime-added original clauses
// above origEnd, interleaved with learned constraints; the cover must span
// them too — a cube is an implicant of the whole current matrix. The
// qbfdebug deep checker recomputes the cover by a full walk of every
// original clause (checkCover).
func (s *Solver) coverCube(w *workSet) {
	for i := range s.frames {
		for _, ci := range s.frames[i].cover {
			s.coverClause(w, int(ci))
		}
	}
	s.checkCover(w)
}

// coverClause extends the cover w to the original clause ci, choosing the
// best true literal by the (class, pure, dlevel) key. A true literal that
// is statically reducible or already in w ends the scan: either way the
// clause adds nothing to the cover. The literal whose dequeue satisfied
// the clause — trail[sat(ci)-1], true at every empty-matrix solution — is
// tested first, so a clause it settles costs no scan; this cannot change
// the cover, because the scan would return on that literal too.
func (s *Solver) coverClause(w *workSet, ci int) {
	tag := s.ar.sat(ci)
	if tag == 0 {
		invariant.Violated("core: coverCube called with an unsatisfied original clause")
	}
	if t := s.trail[tag-1]; s.eReducible[t.v()] || w.get(t.v()) == t {
		return
	}
	var best code
	bestKey := [3]int{2, 2, int(^uint(0) >> 1)} // (class, pure, dlevel); lower wins
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		l := s.ar.lit(ci, k)
		if s.val[l] != vTrue {
			continue
		}
		v := l.v()
		if s.eReducible[v] || w.get(v) == l {
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
		if s.quant[v] == qbf.Forall {
			class = 1
		}
		pure := 0
		if s.reason[v] == reasonPure {
			pure = 1
		}
		key := [3]int{class, pure, s.dlevel[v]}
		if key[0] < bestKey[0] ||
			(key[0] == bestKey[0] && (key[1] < bestKey[1] ||
				(key[1] == bestKey[1] && key[2] < bestKey[2]))) {
			best, bestKey = l, key
		}
	}
	if best == 0 {
		invariant.Violated("core: original clause %d has no true literal at an empty-matrix solution", ci)
	}
	w.add(best)
}

// handle processes an event of primary quantifier q: a conflicting clause
// (q = ∃) or a solution (q = ∀; a fired cube, or the empty matrix when
// ci < 0). With learning of that kind on, it learns and backjumps if
// analysis derives an asserting constraint; otherwise it flips the deepest
// open decision of quantifier q. It returns false when the formula is
// decided: false after a conflict, true after a solution.
func (s *Solver) handle(ci int, q qbf.Quant) bool {
	learn, cube := !s.opt.DisableClauseLearning, false
	if q == qbf.Forall {
		learn, cube = !s.opt.DisableCubeLearning, true
	}
	if ci >= 0 && s.ar.deleted(ci) {
		// An emptied constraint would seed an empty working set, which
		// analysis reads as a terminal verdict — a silent wrong answer.
		// solve() guarantees nothing (in particular not the memory
		// governor) runs between the event and this call.
		invariant.Violated("core: analysis over deleted constraint %d", ci)
	}
	if learn {
		a := s.analyze(ci, q)
		if a.terminal {
			return false
		}
		if a.asserting {
			s.stats.Backjumps++
			s.backtrack(a.blevel)
			id := s.addLearned(a.lits, cube, a.frame)
			s.assign(a.force, reasonConstraint, id)
			s.bumpConstraint(a.lits)
			s.reduceDB(cube)
			s.maybeRestart()
			return true
		}
	}
	return s.chronoFlip(q)
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
		v := l.v()
		if s.reason[v] == reasonDecision && s.quant[v] == q {
			s.backtrack(lvl - 1)
			s.level++
			s.levelStart = append(s.levelStart, len(s.trail))
			s.assign(l^1, reasonFlipped, -1)
			s.stats.ChronoBacktracks++
			return true
		}
	}
	return false
}
