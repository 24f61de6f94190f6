package core

import (
	"errors"
	"fmt"

	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// This file is the incremental session lifecycle (Options.Incremental):
// Push/Pop assumption frames plus AddClause/Assume between Solve calls,
// against one fixed prefix. The formula solved at any moment is the base
// matrix plus every clause added at a currently open frame depth (an
// assumption is just a unit clause), so a fresh solver built over that
// conjunction must agree with the session verdict — the contract the
// metamorphic suite (incremental_test.go) checks step by step.
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
//   - A learned cube always carries tag 0 but dies on every AddClause or
//     Assume instead: a cube is an implicant of the *current* matrix
//     (model-side reasoning), so shrinking the matrix preserves it while
//     growing the matrix by any clause invalidates it.
//
// Frame marks make the drops safe. A frame records the level-0 trail
// length at its Push; a constraint tagged d can only have propagated at
// trail positions at or past frame d's mark (it did not exist — or, for a
// lemma, had no frame-d premise — before then), so Pop first unwinds the
// level-0 trail to the mark and only then deletes, leaving no trail entry
// citing a deleted reason. dropAllCubes maintains the same property from
// the other side: when it unwinds cube-reasoned trail entries below an
// open frame's mark, it clamps that mark down, keeping "tagged ≥ d
// propagates ≥ mark_d" true for the rest of the session.
//
// A freshly added clause is installed with watches computed under the
// current level-0 assignment, which the watch machinery never observed
// changing; the clause is therefore queued on wakeRefs and fully scanned
// at the next propagation fixpoint (propagateAll/drainWakes). A clause
// whose universal reduction is empty or existential-free is a
// contradiction (Lemma 4) the moment it is added: falseFrom records the
// shallowest frame depth that did this, Solve returns False while the
// record lives, and the Pop of that depth clears it.

// frame is one open assumption frame.
type frame struct {
	// mark is the level-0 trail position the frame opened at (clamped down
	// by dropAllCubes when cube-reasoned entries below it are unwound);
	// popping the frame unwinds the trail to it.
	mark int
	// clauses are the arena refs of the original clauses added at this
	// depth, removed eagerly on Pop.
	clauses []int
}

// ErrNotIncremental is returned by the session operations of a solver
// built without Options.Incremental.
var ErrNotIncremental = errors.New("core: session operation on a solver built without Options.Incremental")

// ErrNoFrame is returned by Pop when no frame is open.
var ErrNoFrame = errors.New("core: Pop without a matching Push")

// beginOp gates and normalizes every session operation: the solver must be
// incremental, and the search state is rewound to the root so the
// operation manipulates only the level-0 trail.
func (s *Solver) beginOp() error {
	if !s.opt.Incremental {
		return ErrNotIncremental
	}
	s.backtrack(0)
	s.opDirty = true
	return nil
}

// FrameDepth returns the number of open assumption frames.
func (s *Solver) FrameDepth() int { return len(s.frames) }

// Push opens a new assumption frame and returns the new depth. Clauses and
// assumptions added while the frame is open are retracted by the matching
// Pop. Push alone does not change the formula, so a previous verdict
// stands until something is added.
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
// session faster than from-scratch solving. A False verdict is forgotten
// (its premises may just have been retracted); a True verdict stands
// (removing clauses cannot falsify a true formula).
func (s *Solver) Pop() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	d := len(s.frames)
	if d == 0 {
		return 0, ErrNoFrame
	}
	f := s.frames[d-1]
	s.unwindTrail(f.mark)
	for _, ci := range f.clauses {
		s.removeOriginalClause(ci)
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.frame(ci) >= d {
			s.dropLearned(ci)
		}
	}
	s.frames = s.frames[:d-1]
	if s.falseFrom == d {
		s.falseFrom = -1
	}
	if s.lastResult == False {
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
		if prev := w.get(v); prev != 0 && prev != l {
			return nil // tautology: x ∨ ¬x ∨ … is no constraint at all
		}
		w.add(l)
	}
	// A grown formula can only lose models: a True verdict is stale, a
	// False one still stands and is kept.
	if s.lastResult == True {
		s.lastResult = Unknown
	}
	depth := len(s.frames)
	s.universalReduceSet(w)
	lits := w.slice()
	hasE := false
	for _, l := range lits {
		if s.quant[l.Var()] == qbf.Exists {
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

// Assume asserts each literal at the current frame depth — sugar for
// adding the corresponding unit clauses, which is exactly what an
// assumption under one fixed prefix is: Solve answers for the formula
// conjoined with the literals, and the matching Pop retracts them.
// Assuming a universal literal l makes the formula trivially false (the
// unit clause [l] universally reduces to the empty clause).
func (s *Solver) Assume(lits ...qbf.Lit) error {
	for _, l := range lits {
		if err := s.AddClause(qbf.Clause{l}); err != nil {
			return err
		}
	}
	return nil
}

// installRuntimeClause installs a validated, universally reduced clause as
// a runtime original: into the arena (learned flag off, tagged with its
// frame depth), the occurrence and heuristic counters, the residual-matrix
// bookkeeping, the watcher tables, and the wake queue. Only literals the
// propagation engine has dequeued satisfy the clause here — satWalk takes
// it out of the matrix when a pending one drains. A clause that an older
// dequeued root literal already satisfies gets that literal's satisfaction
// tag and enters satStack at its sorted place, so the unwind that pops the
// literal returns the clause to the matrix.
func (s *Solver) installRuntimeClause(lits []qbf.Lit, depth int) int {
	id := s.ar.alloc(lits, false, false)
	s.ar.setFrame(id, depth)
	s.nOriginalClauses++
	tag := 0
	for _, l := range lits {
		li := litIdx(l)
		s.occ[li] = append(s.occ[li], int32(id))
		s.counter[li]++
		if p := s.trailPos[l.Var()]; s.litValue(l) == vTrue && p < s.qhead && (tag == 0 || p+1 < tag) {
			tag = p + 1
		}
	}
	if tag == 0 {
		s.numUnsatOriginal++
		for _, l := range lits {
			s.activeOcc[litIdx(l)]++
		}
	} else {
		s.satInsert(id, tag)
	}
	s.initWatches(id)
	s.wakeRefs = append(s.wakeRefs, id)
	s.runtimeOrig = append(s.runtimeOrig, id)
	if depth > 0 {
		fr := &s.frames[depth-1]
		fr.clauses = append(fr.clauses, id)
	}
	return id
}

// removeOriginalClause retracts a runtime original: the inverse of
// installRuntimeClause. Occurrence refs are removed eagerly — satWalk
// iterates occurrence lists without testing the deleted flag — and so is
// the clause's satStack entry, which keeps its place in tag order; watcher
// entries are dropped lazily like any deleted constraint's.
func (s *Solver) removeOriginalClause(ci int) {
	n := s.ar.size(ci)
	if s.ar.sat(ci) != 0 {
		s.satRemove(ci)
	} else {
		// The clause was part of the residual matrix; it leaves it.
		s.numUnsatOriginal--
		for k := 0; k < n; k++ {
			m := s.ar.lit(ci, k)
			mi := litIdx(m)
			s.activeOcc[mi]--
			if s.activeOcc[mi] == 0 && s.value[m.Var()] == undef {
				s.pureCand = append(s.pureCand, m.Var())
			}
		}
	}
	for k := 0; k < n; k++ {
		li := litIdx(s.ar.lit(ci, k))
		s.counter[li]--
		occ := s.occ[li]
		for j, c := range occ {
			if int(c) == ci {
				occ[j] = occ[len(occ)-1]
				s.occ[li] = occ[:len(occ)-1]
				break
			}
		}
	}
	for j, c := range s.runtimeOrig {
		if c == ci {
			s.runtimeOrig[j] = s.runtimeOrig[len(s.runtimeOrig)-1]
			s.runtimeOrig = s.runtimeOrig[:len(s.runtimeOrig)-1]
			break
		}
	}
	s.nOriginalClauses--
	s.ar.del(ci)
}

// invalidatePures unwinds every root-level pure assignment whose variable
// the incoming clause mentions — in either polarity. A falsified pure loses
// its justification outright (the clause introduces the complement the
// absence of which justified it). But an AGREEING literal is no safer: a
// universal that was pure-or-unconstrained may have been fixed to the value
// that now satisfies the clause, while the grown occurrence sets demand the
// opposite value (the adversary never satisfies a clause it can falsify) —
// keeping it would count the clause satisfied by a wrongly-oriented
// universal. The trail is cut at the earliest such entry (unwound pure
// variables re-enter pureCand and are re-judged against the updated
// occurrence sets at the next fixpoint); open frames whose mark sat above
// the cut are clamped like in dropAllCubes. Pure assignments of variables
// the clause does not mention keep their justification and stay.
func (s *Solver) invalidatePures(lits []qbf.Lit) {
	cut := len(s.trail)
	for _, l := range lits {
		v := l.Var()
		if s.value[v] != undef && s.dlevel[v] == 0 && s.reason[v] == reasonPure {
			if p := s.trailPos[v]; p < cut {
				cut = p
			}
		}
	}
	if cut < len(s.trail) {
		s.unwindTrail(cut)
		for i := range s.frames {
			if s.frames[i].mark > cut {
				s.frames[i].mark = cut
			}
		}
	}
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
// would be left citing deleted reasons, so the trail is first unwound to
// the earliest such entry; open frames whose mark sat above the cut are
// clamped down to it, preserving the mark property for their future drops.
func (s *Solver) dropAllCubes() {
	if s.learnedCubes == 0 {
		return
	}
	cut := len(s.trail)
	for i := 0; i < len(s.trail); i++ {
		v := s.trail[i].Var()
		if s.reason[v] == reasonConstraint && s.ar.isCube(s.reasonC[v]) {
			cut = i
			break
		}
	}
	if cut < len(s.trail) {
		s.unwindTrail(cut)
		for i := range s.frames {
			if s.frames[i].mark > cut {
				s.frames[i].mark = cut
			}
		}
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.isCube(ci) {
			s.dropLearned(ci)
		}
	}
}
