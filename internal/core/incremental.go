package core

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// This file is the incremental session lifecycle (Options.Incremental):
// Push/Pop assumption frames plus AddClause/Assume between Solve calls,
// against one fixed prefix. The formula solved at any moment is the base
// matrix plus every clause and assumption added at a currently open frame
// depth, so a fresh solver built over that conjunction — each assumption
// as a unit clause — must agree with the session verdict: the contract the
// metamorphic suite (incremental_test.go) checks step by step.
//
// Assume takes one of two paths:
//
//   - A root assumption: an existential literal whose block has no guards
//     (no alternation separates it from the root), so the literal is
//     ≺-minimal. Fixing such a variable leaves the matrix unchanged; it is
//     the branch every search would open with. The literal goes on the
//     depth-tagged assumption list (assumps), and solve asserts every live
//     one at level 0 (reasonAssumption) before it searches; one already
//     false there makes the answer False. An assumption is never a
//     resolution pivot, so every learned clause and cube stays a
//     consequence of the matrix alone and outlives the assumption.
//   - Any other literal (a universal, or an existential behind an
//     alternation) is added as the unit clause it stands for.
//
// What survives a Pop is decided by frame tags (arena header word 3):
//
//   - A runtime original clause carries the depth of the frame that added
//     it and dies when that frame pops (depth 0 adds are permanent).
//   - A learned clause carries the deepest tag among the constraints its
//     Q-resolution derivation resolved with: it is a consequence of the
//     base matrix plus the frames up to its tag, so it survives every pop
//     above the tag and dies with the tagged frame. Shallow-tagged lemmas
//     — including everything derived from the base alone — survive the
//     whole session.
//   - A learned cube always carries tag 0 but dies on every AddClause
//     (hence on every unit-clause Assume) instead: a cube is an implicant
//     of the *current* matrix (model-side reasoning), so shrinking the
//     matrix preserves it while growing the matrix by any clause
//     invalidates it. Root assumptions leave the matrix alone, so cubes
//     survive them.
//
// Frame marks make the drops safe. A frame records the level-0 trail
// length at its Push; a constraint tagged d can only have propagated at
// trail positions at or past frame d's mark (it did not exist — or, for a
// lemma, had no frame-d premise — before then), and an assumption of
// depth d is asserted there too, so Pop first unwinds the level-0 trail
// to the mark and only then deletes, leaving no trail entry citing a
// deleted reason or a popped assumption. dropAllCubes and invalidatePures
// maintain the same property from the other side: when they unwind
// level-0 entries below an open frame's mark, they clamp that mark down
// to the cut, keeping "tagged ≥ d propagates ≥ mark_d" true for the rest
// of the session. All three cut through cutRoot, which moves a cut down to
// the last position below which no entry was visited after the entries
// above it were assigned, so the watches below the cut do not depend on
// the entries above it. The assumptions such an unwind retracts are
// asserted again by the next solve.
//
// A freshly added clause is installed with watches computed under the
// current level-0 assignment, which the watch machinery never observed
// changing; the clause is therefore queued on wakeRefs and fully scanned
// at the next propagation fixpoint (propagateAll/drainWakes). A clause
// whose universal reduction is empty or existential-free is a
// contradiction (Lemma 4) the moment it is added: falseFrom records the
// shallowest frame depth that did this, Solve returns False while the
// record lives, and the Pop of that depth clears it.
//
// Verdicts outlive the operations that cannot change them. Push changes
// nothing; a Pop only removes constraints, so a True verdict stands;
// AddClause and Assume only add them, so a False verdict stands. A False
// verdict also outlives the Pop of any frame opened after it was derived
// (falseDepth): that frame held nothing the derivation used.

// frame is one open assumption frame.
type frame struct {
	// mark is the level-0 trail position the frame opened at (clamped down
	// by dropAllCubes and invalidatePures when they unwind entries below
	// it); popping the frame unwinds the trail to it, or below it
	// (cutRoot).
	mark int
	// clauses are the arena refs of the original clauses added at this
	// depth, in install order, removed eagerly on Pop (retractFrame).
	clauses []int
}

// assumption is one live root assumption: a ≺-minimal existential literal
// and the frame depth it was assumed at (0: for the rest of the session).
type assumption struct {
	lit   code
	depth int
}

// ErrNotIncremental is returned by the session operations of a solver
// built without Options.Incremental.
var ErrNotIncremental = errors.New("core: session operation on a solver built without Options.Incremental")

// ErrNoFrame is returned by Pop when no frame is open.
var ErrNoFrame = errors.New("core: Pop without a matching Push")

// beginOp gates and normalizes every session operation: the solver must be
// incremental, and the search state is rewound to the root so the
// operation manipulates only the level-0 trail. The rewind takes away the
// terminal assignment a True verdict's witness is read from.
func (s *Solver) beginOp() error {
	if !s.opt.Incremental {
		return ErrNotIncremental
	}
	s.backtrack(0)
	s.opDirty = true
	s.modelGone = true
	return nil
}

// FrameDepth returns the number of open assumption frames.
func (s *Solver) FrameDepth() int { return len(s.frames) }

// Push opens a new assumption frame and returns the new depth. Clauses and
// assumptions added while the frame is open are retracted by the matching
// Pop. Push alone does not change the formula, so a previous verdict
// stands.
func (s *Solver) Push() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	s.frames = append(s.frames, frame{mark: len(s.trail)})
	s.emitEv(telemetry.KindFrame, 0, 0, int64(len(s.frames)))
	return len(s.frames), nil
}

// Pop closes the deepest frame and returns the new depth: the frame's
// clauses and assumptions leave the formula, and with them every learned
// clause whose derivation depended on the frame. Learned cubes and
// shallower-tagged lemmas survive — the retained database is what makes a
// session faster than from-scratch solving. A True verdict stands
// (removing constraints cannot falsify a true formula). A False verdict is
// forgotten only when it was derived with this frame open (its premises
// may just have been retracted); one derived at a shallower depth stands,
// so a push/assume/solve/pop round trip over a False formula costs nothing.
func (s *Solver) Pop() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	d := len(s.frames)
	if d == 0 {
		return 0, ErrNoFrame
	}
	f := s.frames[d-1]
	s.cutRoot(f.mark)
	for len(s.assumps) > 0 && s.assumps[len(s.assumps)-1].depth == d {
		s.assumps = s.assumps[:len(s.assumps)-1]
	}
	s.retractFrame(f.clauses)
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.frame(ci) >= d {
			s.dropLearned(ci)
		}
	}
	s.frames = s.frames[:d-1]
	if s.falseFrom == d {
		s.falseFrom = -1
	}
	if s.lastResult == False && d <= s.falseDepth {
		// The False verdict may have been a terminal root conflict, which
		// returned with the falsified clause's triggers consumed on the
		// level-0 trail. If the falsifying assignments survive this pop
		// (their frames are still open), nothing would ever revisit the
		// clause, so queue every live clause for a full rescan: the next
		// propagation fixpoint re-derives the conflict if it still holds,
		// and re-asserts root units that the unwind removed if it does not.
		s.lastResult = Unknown
		s.rewakeClauses()
	}
	if s.ar.wasted > 0 && 2*s.ar.wasted >= s.ar.end()-s.origEnd {
		s.compactLearned()
	}
	s.emitEv(telemetry.KindFrame, 0, 1, int64(len(s.frames)))
	return len(s.frames), nil
}

// AddClause conjoins c to the formula at the current frame depth (depth 0:
// permanently). The clause is universally reduced against the prefix
// first; a reduction with no existential literal is a contradiction
// (Lemma 4) recorded against the current depth, making Solve return False
// until that frame pops. A tautological c is a no-op. Every literal must
// use a variable bound by the prefix the solver was built over — the
// prefix is fixed for the session — and the clause must be
// scope-consistent: its variables' blocks must form a chain of the
// quantifier tree, the same condition NewSolver requires of the base
// matrix (the recursive semantics is only defined under it). A True
// verdict is forgotten (the model may violate c); a False verdict stands.
func (s *Solver) AddClause(c qbf.Clause) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	w := s.newWorkSet()
	var deep qbf.Var // deepest-block variable seen so far
	for _, l := range c {
		if l == qbf.NoLit {
			return errors.New("core: AddClause: zero literal")
		}
		v := l.Var()
		if v.Int() < qbf.MinVar.Int() || v.Int() > s.nVars || s.blockOf[v] < 0 {
			return fmt.Errorf("core: AddClause: variable %d not bound by the session prefix", v)
		}
		switch {
		case deep == 0, s.sd[deep] <= s.sd[v] && s.sf[v] <= s.sf[deep]:
			deep = v // v's block sits at or below deep's
		case s.sd[v] <= s.sd[deep] && s.sf[deep] <= s.sf[v]:
			// deep stays the deepest
		default:
			return fmt.Errorf("core: AddClause: variables %d and %d span incomparable scopes", deep, v)
		}
		if prev := w.get(uint32(v)); prev != 0 && prev != enc(l) {
			return nil // tautology: x ∨ ¬x ∨ … is no constraint at all
		}
		w.add(enc(l))
	}
	// A grown formula can only lose models: a True verdict is stale, a
	// False one still stands and is kept.
	if s.lastResult == True {
		s.lastResult = Unknown
	}
	depth := len(s.frames)
	s.reduceSet(w, qbf.Exists)
	lits := w.slice()
	hasE := false
	for _, l := range lits {
		if s.quant[l.v()] == qbf.Exists {
			hasE = true
			break
		}
	}
	if len(lits) == 0 || !hasE {
		if s.falseFrom < 0 || depth < s.falseFrom {
			s.falseFrom = depth
		}
		s.emitEv(telemetry.KindFrame, 0, 2, int64(depth))
		return nil
	}
	s.dropAllCubes()
	s.invalidatePures(lits)
	s.installRuntimeClause(lits, depth)
	s.emitEv(telemetry.KindFrame, 0, 2, int64(depth))
	return nil
}

// Assume asserts each literal at the current frame depth: Solve answers
// for the formula conjoined with the literals' unit clauses, and the
// matching Pop retracts them. A ≺-minimal existential literal (its block
// has no guards) becomes a root assumption, which changes no clause: it
// is asserted at level 0 by every Solve while it lives, learned cubes
// survive it, and a False verdict stands. Any other literal is added as
// its unit clause through AddClause, which drops every learned cube;
// assuming a universal literal l makes the formula trivially false (the
// unit clause [l] universally reduces to the empty clause). Either way a
// True verdict is forgotten.
func (s *Solver) Assume(lits ...qbf.Lit) error {
	for _, l := range lits {
		var err error
		if s.rootLit(l) {
			err = s.assumeRoot(enc(l))
		} else {
			err = s.AddClause(qbf.Clause{l})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rootLit reports whether l is a bound existential literal whose block has
// no guards (level 1: no ancestor has a smaller level), i.e. a literal
// Assume can take as a root assumption. Anything else, invalid literals
// included, goes to AddClause.
func (s *Solver) rootLit(l qbf.Lit) bool {
	v := l.Var()
	if l == qbf.NoLit || v.Int() < qbf.MinVar.Int() || v.Int() > s.nVars || s.blockOf[v] < 0 {
		return false
	}
	return s.quant[v] == qbf.Exists && s.blocks[s.blockOf[v]].level == 1
}

// assumeRoot records l as a root assumption at the current depth. No clause
// is installed, so no cube is dropped and no frame tag is involved; only a
// root pure assignment of l's variable is unwound (invalidatePures), since
// the value purity picked may be the one the assumption excludes.
func (s *Solver) assumeRoot(l code) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	if s.lastResult == True {
		s.lastResult = Unknown
	}
	s.invalidatePures([]code{l})
	s.assumps = append(s.assumps, assumption{lit: l, depth: len(s.frames)})
	s.emitEv(telemetry.KindFrame, 0, 3, int64(len(s.frames)))
	return nil
}

// assertAssumptions puts every live root assumption on the level-0 trail
// that is not already there, and reports false when one is false there.
// solve calls it before searching, which also repairs the unwinds of
// Pop, dropAllCubes and invalidatePures. A resumed search finds them all
// true: nothing below level 1 is unwound while a search runs.
func (s *Solver) assertAssumptions() bool {
	for _, a := range s.assumps {
		switch s.val[a.lit] {
		case vFalse:
			return false
		case undef:
			if s.level != 0 {
				invariant.Violated("core: root assumption %d unassigned at decision level %d", a.lit.lit(), s.level)
			}
			s.assign(a.lit, reasonAssumption, -1)
		}
	}
	return true
}

// installRuntimeClause installs a validated, universally reduced clause as
// a runtime original: into the arena (learned flag off, tagged with its
// frame depth), the occurrence and heuristic counters, the residual-matrix
// bookkeeping, the watcher tables, the runtime-original and cover lists,
// and the wake queue. Only literals the propagation engine has dequeued
// satisfy the clause here — satWalk takes it out of the matrix when a
// pending one drains. A clause that an older dequeued root literal already
// satisfies gets that literal's satisfaction tag and enters satStack at
// its sorted place, so the unwind that pops the literal returns the clause
// to the matrix.
func (s *Solver) installRuntimeClause(lits []code, depth int) int {
	id := s.ar.alloc(lits, false, false)
	s.ar.setFrame(id, depth)
	s.nOriginalClauses++
	tag := 0
	for _, l := range lits {
		s.occ[l] = append(s.occ[l], int32(id))
		s.counter[l]++
		if p := s.trailPos[l.v()]; s.val[l] == vTrue && p < s.qhead && (tag == 0 || p+1 < tag) {
			tag = p + 1
		}
	}
	if tag == 0 {
		s.numUnsatOriginal++
		for _, l := range lits {
			s.activeOcc[l]++
		}
	} else {
		s.satInsert(id, tag)
	}
	s.initWatches(id)
	s.wakeRefs = append(s.wakeRefs, id)
	s.runtimeOrig = append(s.runtimeOrig, id)
	if s.coverable(id) {
		s.coverRuntime = append(s.coverRuntime, int32(id))
	}
	if depth > 0 {
		fr := &s.frames[depth-1]
		fr.clauses = append(fr.clauses, id)
	}
	return id
}

// retractFrame retracts the runtime originals of the deepest frame, in
// install order: the inverse of installRuntimeClause for each. It relies on
// a suffix property. AddClause installs at the current depth, and depth 0
// only while no frame is open, so the frame tags along runtimeOrig never
// decrease, and every occurrence list holds the construction-time
// originals and then the runtime ones in install order; compaction rebinds
// refs in place. The deepest frame's clauses are therefore the last
// entries of runtimeOrig, of coverRuntime, and of every occurrence list
// that holds them, and each is cut off its end in O(1). The residual-matrix
// bookkeeping (numUnsatOriginal, activeOcc, pureCand) runs per clause in
// install order. satStack loses the tagged ones in one pass that keeps the
// others in order. Watcher entries are dropped lazily like any deleted
// constraint's.
func (s *Solver) retractFrame(cls []int) {
	tagged := false
	for _, ci := range cls {
		n := s.ar.size(ci)
		if s.ar.sat(ci) != 0 {
			tagged = true
		} else {
			// The clause was part of the residual matrix; it leaves it.
			s.numUnsatOriginal--
			for k := 0; k < n; k++ {
				m := s.ar.lit(ci, k)
				s.activeOcc[m]--
				if s.activeOcc[m] == 0 && s.val[m] == undef {
					s.pureCand = append(s.pureCand, m.v())
				}
			}
		}
		s.ar.del(ci)
	}
	// Cut the suffixes, last clause first: each occurrence list ends with
	// the refs of the frame's clauses that contain its literal.
	for i := len(cls) - 1; i >= 0; i-- {
		ci := cls[i]
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			m := s.ar.lit(ci, k)
			s.counter[m]--
			occ := s.occ[m]
			if len(occ) == 0 || int(occ[len(occ)-1]) != ci {
				invariant.Violated("core: Pop: clause %d is not at the end of an occurrence list of its literal %d", ci, m.lit())
			}
			s.occ[m] = occ[:len(occ)-1]
		}
	}
	s.runtimeOrig = s.runtimeOrig[:len(s.runtimeOrig)-len(cls)]
	n := len(s.coverRuntime)
	for n > 0 && s.ar.deleted(int(s.coverRuntime[n-1])) {
		n--
	}
	s.coverRuntime = s.coverRuntime[:n]
	s.nOriginalClauses -= len(cls)
	if tagged {
		live := s.satStack[:0]
		for _, ci := range s.satStack {
			if !s.ar.deleted(int(ci)) {
				live = append(live, ci)
			}
		}
		s.satStack = live
	}
}

// invalidatePures unwinds every root-level pure assignment whose variable
// the incoming clause mentions — in either polarity; a root assumption
// passes itself as a one-literal clause. A falsified pure loses its
// justification outright (the clause introduces the complement the
// absence of which justified it). But an AGREEING literal is no safer: a
// universal that was pure-or-unconstrained may have been fixed to the value
// that now satisfies the clause, while the grown occurrence sets demand the
// opposite value (the adversary never satisfies a clause it can falsify) —
// keeping it would count the clause satisfied by a wrongly-oriented
// universal. The trail is cut (cutRoot) at or below the earliest such
// entry (unwound pure variables re-enter pureCand and are re-judged
// against the updated occurrence sets at the next fixpoint). Pure
// assignments of variables the clause does not mention keep their
// justification and stay unless the cut falls below them.
func (s *Solver) invalidatePures(lits []code) {
	cut := len(s.trail)
	for _, l := range lits {
		v := l.v()
		if s.val[l] != undef && s.dlevel[v] == 0 && s.reason[v] == reasonPure {
			if p := s.trailPos[v]; p < cut {
				cut = p
			}
		}
	}
	s.cutRoot(cut)
}

// rewakeClauses queues every live clause — base, runtime, learned — for a
// state scan at the next propagation fixpoint (see Pop). Cubes are exempt:
// a consumed solution event cannot go stale, because the matrix-empty check
// is recomputed at every fixpoint and AddClause drops all cubes before the
// matrix can grow.
func (s *Solver) rewakeClauses() {
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && !s.ar.isCube(ci) {
			s.wakeRefs = append(s.wakeRefs, ci)
		}
	}
}

// dropAllCubes deletes every learned cube — the AddClause side of the cube
// lifecycle (see the file comment). Cube-reasoned level-0 trail entries
// would be left citing deleted reasons, so the trail is first cut
// (cutRoot) at or below the earliest such entry.
func (s *Solver) dropAllCubes() {
	if s.learnedCubes == 0 {
		return
	}
	cut := len(s.trail)
	for i := 0; i < len(s.trail); i++ {
		v := s.trail[i].v()
		if s.reason[v] == reasonConstraint && s.ar.isCube(s.reasonC[v]) {
			cut = i
			break
		}
	}
	s.cutRoot(cut)
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.isCube(ci) {
			s.dropLearned(ci)
		}
	}
}

// noteRootCut records the current level-0 trail length as a position
// cutRoot may cut at. The caller guarantees that no entry below it will be
// visited again: the search sits at a quiescent level-0 fixpoint, or a
// Solve is starting with an empty propagation queue.
func (s *Solver) noteRootCut() {
	if n := len(s.rootCuts); n == 0 || s.rootCuts[n-1] < len(s.trail) {
		s.rootCuts = append(s.rootCuts, len(s.trail))
	}
}

// cutRoot unwinds the level-0 trail to end — or further, to the last
// recorded cut position at or below end (0 if none) — and clamps every
// open frame's mark down to the cut. Every session operation that
// retracts level-0 entries goes through it; with nothing at or above end
// there is nothing to retract.
//
// A clause whose watched literal is falsified while another of its
// literals is already true stays parked on the falsified watch
// (watch.go). The search pops whole decision levels, which takes the
// satisfier and the parked watch off together. A cut inside level 0 can
// separate them when the satisfier was assigned after the falsified watch
// but before the visit that parked on it — a cube-propagated universal,
// say — and a clause left watching a false existential and an unassigned
// universal misses its next falsification: a silent conflict. Below a
// recorded position every visit happened before anything above it was
// assigned, so no watch parked below the cut relies on a satisfier above
// it. The entries between the cut and end go too; they were consequences,
// so dropping them is sound, and one the watches do not derive again
// costs the next search at most a decision.
func (s *Solver) cutRoot(end int) {
	if end >= len(s.trail) {
		return
	}
	i := len(s.rootCuts)
	for i > 0 && s.rootCuts[i-1] > end {
		i--
	}
	cut := 0
	if i > 0 {
		cut = s.rootCuts[i-1]
	}
	s.rootCuts = s.rootCuts[:i]
	s.unwindTrail(cut)
	for i := range s.frames {
		if s.frames[i].mark > cut {
			s.frames[i].mark = cut
		}
	}
}
