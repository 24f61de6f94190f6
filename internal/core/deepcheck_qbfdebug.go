//go:build qbfdebug

package core

import (
	"math/rand"
	"slices"

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
		invariant.Check(s.before(uint32(a), uint32(b)) == p.Before(a, b),
			"core: solver before(%d,%d)=%v disagrees with Prefix.Before=%v",
			a, b, s.before(uint32(a), uint32(b)), p.Before(a, b))
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
	s.checkRuntimeOrder()
	s.checkCoverLists()
}

// truth is the value of the qbf literal l under the value table.
func (s *Solver) truth(l qbf.Lit) int8 { return s.val[enc(l)] }

// checkTrail validates the trail against the per-variable arrays and the
// value table: each variable's two entries are both undef or one vTrue and
// one vFalse, a variable is assigned exactly when it is on the trail, and
// its trail literal is the true one.
func (s *Solver) checkTrail() {
	invariant.Check(s.qhead == len(s.trail),
		"core: deepCheck at a non-fixpoint: qhead=%d, trail=%d", s.qhead, len(s.trail))
	invariant.Check(len(s.levelStart) == s.level+1,
		"core: levelStart has %d entries for level %d", len(s.levelStart), s.level)
	invariant.Check(len(s.val) == 2*(s.nVars+1),
		"core: value table has %d entries for %d variables", len(s.val), s.nVars)

	for i, c := range s.trail {
		v := int(c.v())
		invariant.Check(v >= 1 && v <= s.nVars, "core: trail[%d] has variable %d out of range", i, v)
		l := c.lit()
		invariant.Check(s.truth(l) == vTrue, "core: trail literal %d is not true", l)
		invariant.Check(s.trailPos[v] == i, "core: trailPos[%d]=%d, but the variable sits at %d", v, s.trailPos[v], i)
		invariant.Check(s.dlevel[v] >= 0 && s.dlevel[v] <= s.level, "core: dlevel[%d]=%d outside [0,%d]", v, s.dlevel[v], s.level)
		invariant.Check(s.reason[v] != reasonNone, "core: assigned variable %d has no reason", v)
		invariant.Check(s.blockOf[v] >= 0, "core: ghost variable %d was assigned", v)
	}
	assigned := 0
	for v := qbf.MinVar; v.Int() <= s.nVars; v++ {
		pos, neg := s.truth(v.PosLit()), s.truth(v.NegLit())
		invariant.Check(pos == undef && neg == undef || pos == vTrue && neg == vFalse || pos == vFalse && neg == vTrue,
			"core: value table entries of variable %d are %d and %d: neither both unassigned nor complementary", v, pos, neg)
		if pos != undef {
			assigned++
			tp := s.trailPos[v]
			invariant.Check(tp >= 0 && tp < len(s.trail) && s.trail[tp].lit().Var() == v,
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
		v := s.trail[start].lit().Var()
		rk := s.reason[v]
		invariant.Check(rk == reasonDecision || rk == reasonFlipped,
			"core: level %d starts with reason %d, want a decision", k, rk)
		invariant.Check(s.dlevel[v] == k,
			"core: decision of level %d recorded at dlevel %d", k, s.dlevel[v])
	}

	// Constraint-propagated literals must cite a live reason constraint
	// that actually contains them (negated for cube propagations, which
	// assign the complement of the remaining universal literal).
	for _, c := range s.trail {
		l := c.lit()
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
			if s.ar.lit(ci, k).lit() == want {
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
			if s.truth(v.PosLit()) == undef {
				un++
			}
		}
		invariant.Check(un == b.unassigned,
			"core: block %d caches unassigned=%d, recomputed %d", bi, b.unassigned, un)
	}
	for bi := range s.blocks {
		open := 0
		for g := s.blocks[bi].parent; g >= 0; g = s.blocks[g].parent {
			if s.blocks[g].level < s.blocks[bi].level && s.blocks[g].unassigned > 0 {
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
				l := s.ar.lit(ci, k).lit()
				if p := s.trailPos[l.Var()]; s.truth(l) == vTrue && (want == 0 || p+1 < want) {
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
// Learned clauses get the structural tier only: they are consequences of
// the originals, so a missed event costs pruning, never soundness.
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
			w := s.ar.lit(ci, k).lit()
			var list []watcher
			if isCube {
				list = s.watchCu[enc(w)]
			} else {
				list = s.watchCl[enc(w.Neg())]
			}
			count := 0
			for _, e := range list {
				if int(e.c) != ci {
					continue
				}
				count++
				b := e.blocker.lit()
				member := false
				for j := 0; j < n; j++ {
					if s.ar.lit(ci, j).lit() == b {
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
				l := s.ar.lit(ci, k).lit()
				if s.truth(l) == vTrue {
					sat = true
					break
				}
				if s.truth(l) == undef && s.quant[l.Var()] == qbf.Exists {
					undefE++
				}
			}
			if !sat {
				invariant.Check(undefE >= 1,
					"core: original clause %d is conflicting at a fixpoint (silent conflict)", ci)
				watchesUndefE := false
				for k := 0; k < nw; k++ {
					w := s.ar.lit(ci, k).lit()
					if s.truth(w) == undef && s.quant[w.Var()] == qbf.Exists {
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
				l := s.ar.lit(ci, k).lit()
				if s.truth(l) == vFalse {
					dead = true
					break
				}
				if s.truth(l) == undef && s.quant[l.Var()] == qbf.Forall {
					undefU++
				}
			}
			if !dead && undefU >= 1 {
				ok := false
				for k := 0; k < nw; k++ {
					w := s.ar.lit(ci, k).lit()
					if s.truth(w) == vTrue ||
						(s.truth(w) == undef && s.quant[w.Var()] == qbf.Forall) {
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
			if s.truth(s.ar.lit(ci, k).lit()) == vTrue {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		unsat++
		for k := 0; k < n; k++ {
			active[enc(s.ar.lit(ci, k).lit())]++
		}
	}
	invariant.Check(unsat == s.numUnsatOriginal,
		"core: numUnsatOriginal=%d, recomputed %d", s.numUnsatOriginal, unsat)
	for i := range active {
		invariant.Check(active[i] == s.activeOcc[i],
			"core: activeOcc[%d]=%d, recomputed %d", i, s.activeOcc[i], active[i])
	}
}

// checkFrames validates the incremental-session bookkeeping: every clause
// a frame tracks is a live runtime original carrying that frame's depth as
// its tag, learned tags are bounded by the open depth, each frame above the
// base lists exactly the live learned clauses tagged with its depth (what
// Pop drops), learned cubes — implicants of the current matrix,
// invalidated by any matrix growth — always carry tag 0, the units list is
// exact (checkUnits), and the root assumptions are asserted
// (checkAssumptions).
func (s *Solver) checkFrames() {
	invariant.Check(len(s.frames[0].learned) == 0, "core: the base frame lists learned clauses %v", s.frames[0].learned)
	top := s.FrameDepth()
	onList := make(map[int]int) // live ref on a frame's learned list → depth
	for depth := range s.frames {
		f := &s.frames[depth]
		for _, ci := range f.clauses {
			invariant.Check(ci >= s.origEnd && ci < s.ar.end(),
				"core: frame %d tracks ref %d outside the runtime region", depth, ci)
			invariant.Check(!s.ar.deleted(ci) && !s.ar.learned(ci) && !s.ar.isCube(ci),
				"core: frame %d tracks ref %d that is not a live original clause", depth, ci)
			invariant.Check(s.ar.frame(ci) == depth,
				"core: frame %d tracks ref %d tagged %d", depth, ci, s.ar.frame(ci))
		}
		for _, ci := range f.learned {
			invariant.Check(ci >= s.origEnd && ci < s.ar.end(),
				"core: frame %d lists learned ref %d outside the learned region", depth, ci)
			if s.ar.deleted(ci) {
				continue
			}
			_, dup := onList[ci]
			invariant.Check(!dup, "core: learned clause %d is listed twice by the frames", ci)
			onList[ci] = depth
		}
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) {
			continue
		}
		tag := s.ar.frame(ci)
		invariant.Check(tag >= 0 && tag <= top,
			"core: constraint %d tagged frame %d with %d frames open", ci, tag, top)
		if s.ar.isCube(ci) {
			invariant.Check(tag == 0, "core: learned cube %d carries frame tag %d", ci, tag)
		}
		want := 0
		if s.ar.learned(ci) {
			want = tag
		}
		invariant.Check(onList[ci] == want,
			"core: constraint %d tagged %d is on the learned list of frame %d (0: none), want %d", ci, tag, onList[ci], want)
	}
	s.checkUnits()
	s.checkAssumptions()
}

// checkUnits validates the list solve rebuilds level 0 from: units names
// exactly the live unit constraints above origEnd, each once. A deleted
// ref may stay on the list until the next compaction purges it.
func (s *Solver) checkUnits() {
	listed := make(map[int]bool, len(s.units))
	for i, ci := range s.units {
		invariant.Check(ci >= s.origEnd && ci < s.ar.end(),
			"core: units[%d]=%d lies outside the region above origEnd", i, ci)
		if s.ar.deleted(ci) {
			continue
		}
		invariant.Check(s.ar.size(ci) == 1, "core: units[%d]=%d has %d literals", i, ci, s.ar.size(ci))
		invariant.Check(!listed[ci], "core: units lists constraint %d twice", ci)
		listed[ci] = true
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.size(ci) == 1 {
			invariant.Check(listed[ci], "core: live unit constraint %d is missing from units", ci)
		}
	}
}

// checkAssumptions validates the root assumptions at a quiescent fixpoint:
// every reasonAssumption trail entry sits at level 0 and asserts a live
// assumption (none of a popped frame remains), and every live assumption
// is true.
func (s *Solver) checkAssumptions() {
	live := make(map[qbf.Lit]bool)
	for depth := range s.frames {
		for _, c := range s.frames[depth].assumed {
			l := c.lit()
			live[l] = true
			invariant.Check(s.truth(l) == vTrue,
				"core: live assumption %d (depth %d) is not true at a fixpoint", l, depth)
		}
	}
	for i, c := range s.trail {
		l := c.lit()
		if s.reason[l.Var()] != reasonAssumption {
			continue
		}
		invariant.Check(s.dlevel[l.Var()] == 0,
			"core: assumption entry %d at trail position %d sits at level %d", l, i, s.dlevel[l.Var()])
		invariant.Check(live[l], "core: assumption entry %d at trail position %d asserts no live assumption", l, i)
	}
}

// checkLearnedConstraint verifies that a freshly learned clause (cube) is
// universally (existentially) reduced with respect to ≺ and mentions every
// variable at most once — the invariants Q-resolution must maintain, whose
// silent violation is exactly the learning-bug class the JAIR 2006
// soundness analysis warns about.
func (s *Solver) checkLearnedConstraint(codes []code, isCube bool) {
	if !s.opt.CheckInvariants || s.dbgPrefix == nil {
		return
	}
	lits := make([]qbf.Lit, len(codes))
	for i, c := range codes {
		lits[i] = c.lit()
	}
	if isCube {
		invariant.Must(invariant.CheckCubeReduced(s.dbgPrefix, lits), "core: learned cube")
	} else {
		invariant.Must(invariant.CheckClauseReduced(s.dbgPrefix, lits), "core: learned clause")
	}
}

// checkRuntimeOrder validates the suffix property that lets Pop cut its
// frame's clauses off the ends of the occurrence lists (retractFrame): the
// frames' clause lists, read in depth order, name every live runtime
// original once (checkFrames holds each to its frame's tag), and every
// occurrence list holds the construction-time originals and then runtime
// originals in that order. Together these make the deepest frame's
// clauses the last entries of every occurrence list that holds them.
func (s *Solver) checkRuntimeOrder() {
	rank := make(map[int]int) // ref → index in the frames' clauses, in depth order
	for depth := range s.frames {
		for _, ci := range s.frames[depth].clauses {
			_, dup := rank[ci]
			invariant.Check(!dup, "core: the frames list runtime clause %d twice", ci)
			rank[ci] = len(rank)
		}
	}
	live := 0
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && !s.ar.learned(ci) {
			live++
		}
	}
	invariant.Check(live == len(rank),
		"core: %d live runtime originals, but the frames list %d", live, len(rank))
	for li, occ := range s.occ {
		prev := -1 // install rank of the previous runtime entry
		for j, ci32 := range occ {
			ci := int(ci32)
			if ci < s.origEnd {
				invariant.Check(prev < 0,
					"core: occurrence list %d holds base clause %d at %d after a runtime clause: the frame suffix property is broken", li, ci, j)
				continue
			}
			r, ok := rank[ci]
			invariant.Check(ok, "core: occurrence list %d holds %d, which is not a live original", li, ci)
			invariant.Check(r > prev,
				"core: occurrence list %d holds runtime clause %d at %d out of install order: the frame suffix property is broken", li, ci, j)
			prev = r
		}
	}
}

// checkCoverLists validates the lists coverCube walks: each frame's cover
// list holds exactly its clauses that have a literal which is not
// eReducible, in install order, the base's after the construction-time
// originals that do, in arena order.
func (s *Solver) checkCoverLists() {
	hasCoverLit := func(ci int) bool {
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			if !s.eReducible[s.ar.lit(ci, k).lit().Var()] {
				return true
			}
		}
		return false
	}
	var want []int32
	for ci := 0; ci < s.origEnd; ci = s.ar.next(ci) {
		if hasCoverLit(ci) {
			want = append(want, int32(ci))
		}
	}
	for depth := range s.frames {
		f := &s.frames[depth]
		for _, ci := range f.clauses {
			if hasCoverLit(ci) {
				want = append(want, int32(ci))
			}
		}
		invariant.Check(slices.Equal(want, f.cover),
			"core: frame %d cover lists %v, but its coverable clauses are %v", depth, f.cover, want)
		want = want[:0]
	}
}

// checkCover recomputes the cover coverCube just put into the fresh
// working set w by the full walk: every live original clause, the base in
// arena order and then the frames' clauses in depth order, each scanned
// for its best true literal by the (class, pure, dlevel) key, and skipped
// when a true literal of it is eReducible or already chosen. w must hold
// the same literals, added in the same order.
func (s *Solver) checkCover(w *workSet) {
	if !s.opt.CheckInvariants {
		return
	}
	var want []qbf.Lit
	chosen := make(map[qbf.Lit]bool)
	walk := func(ci int) {
		var best qbf.Lit
		var bestKey [3]int
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			l := s.ar.lit(ci, k).lit()
			if s.truth(l) != vTrue {
				continue
			}
			v := l.Var()
			if s.eReducible[v] || chosen[l] {
				return
			}
			key := [3]int{0, 0, s.dlevel[v]}
			if s.quant[v] == qbf.Forall {
				key[0] = 1
			}
			if s.reason[v] == reasonPure {
				key[1] = 1
			}
			if best == qbf.NoLit || slices.Compare(key[:], bestKey[:]) < 0 {
				best, bestKey = l, key
			}
		}
		invariant.Check(best != qbf.NoLit, "core: original clause %d has no true literal at an empty-matrix solution", ci)
		want = append(want, best)
		chosen[best] = true
	}
	for ci := 0; ci < s.origEnd; ci = s.ar.next(ci) {
		walk(ci)
	}
	for depth := range s.frames {
		for _, ci := range s.frames[depth].clauses {
			walk(ci)
		}
	}
	got := make([]qbf.Lit, len(w.vars))
	for i, v := range w.vars {
		got[i] = w.get(v).lit()
	}
	invariant.Check(slices.Equal(got, want),
		"core: cover %v differs from the full walk's %v", got, want)
}
