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
// Solver.frames holds one record per depth: frames[0] is the base, never
// popped, and frames[d] the d-th open Push. A record owns everything its
// depth adds — runtime original clauses, their cover list, learned
// clauses tagged with the depth, root assumptions and a contradiction
// flag — so Pop drops the last record and nothing else has to be trimmed.
// Read in depth order, the records' lists give the session's runtime
// clauses, cover entries and assumptions in install order.
//
// Assume takes one of two paths:
//
//   - A root assumption: an existential literal whose block has no guards
//     (no alternation separates it from the root), so the literal is
//     ≺-minimal. Fixing such a variable leaves the matrix unchanged; it is
//     the branch every search would open with. The literal goes on its
//     frame's assumption list, and solve asserts every live one at level 0
//     (reasonAssumption), after the unit constraints, before it searches;
//     one already false there makes the answer False.
//     An assumption is never a resolution pivot, so every learned clause
//     and cube stays a consequence of the matrix alone and outlives the
//     assumption.
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
// Every session operation starts from the empty assignment: beginOp
// unwinds the whole trail, level 0 included, so no level-0 entry outlives
// an operation and none has to be repaired. An operation installs a
// clause's watches under the empty assignment and deletes constraints that
// no trail entry cites. The next Solve rebuilds level 0 (assertRoot): it
// asserts every live unit constraint, then every root assumption, and
// leaves propagation and pure fixing to derive the rest. The unit
// constraints are the runtime unit clauses (a non-root Assume installs
// one) and the learned units, kept as arena refs on the units list; a
// unit cube asserts its complement, and a unit whose literal is already
// false is left to the watcher visit that reports it. Construction-time
// unit clauses are not on the list: as in a one-shot search, the watches
// report them when the search falsifies them.
//
// A clause whose universal reduction is empty or existential-free is a
// contradiction (Lemma 4) the moment it is added: it sets its frame's
// contradiction flag, and Solve returns False while a frame with the flag
// is open.
//
// Verdicts outlive the operations that cannot change them. Push changes
// nothing; a Pop only removes constraints, so a True verdict stands;
// AddClause and Assume only add them, so a False verdict stands. A False
// verdict also outlives the Pop of any frame opened after it was derived
// (falseDepth): that frame held nothing the derivation used.

// frame is what one frame depth adds to the formula (Solver.frames).
type frame struct {
	// clauses are the arena refs of the runtime original clauses added at
	// this depth, in install order, removed eagerly on Pop (retractFrame).
	clauses []int
	// cover lists the clauses coverCube can take a literal from (coverable),
	// in install order. The base's list starts with the construction-time
	// originals, in arena order.
	cover []int32
	// learned are the arena refs of the learned clauses tagged with this
	// depth (above 0), which Pop drops. A ref a reduction round deleted
	// stays until the next compaction purges it.
	learned []int
	// assumed holds the root assumptions made at this depth, in Assume order.
	assumed []code
	// contradiction records that a clause added at this depth (for the
	// base, also a construction-time one) universally reduced to a
	// contradiction: the formula is false while the record lives.
	contradiction bool
}

// ErrNotIncremental is returned by the session operations of a solver
// built without Options.Incremental.
var ErrNotIncremental = errors.New("core: session operation on a solver built without Options.Incremental")

// ErrNoFrame is returned by Pop when no frame is open.
var ErrNoFrame = errors.New("core: Pop without a matching Push")

// beginOp gates and normalizes every session operation: the solver must be
// incremental, and the whole trail, level 0 included, is unwound, so the
// operation works on the empty assignment and the next Solve rebuilds
// level 0 (assertRoot). The unwind takes away the terminal assignment a
// True verdict's witness is read from.
func (s *Solver) beginOp() error {
	if !s.opt.Incremental {
		return ErrNotIncremental
	}
	s.backtrack(0)
	s.unwindTrail(0)
	s.opDirty = true
	s.modelGone = true
	return nil
}

// FrameDepth returns the number of open assumption frames.
func (s *Solver) FrameDepth() int { return len(s.frames) - 1 }

// Push opens a new assumption frame and returns the new depth. Clauses and
// assumptions added while the frame is open are retracted by the matching
// Pop. Push alone does not change the formula, so a previous verdict
// stands.
func (s *Solver) Push() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	s.frames = append(s.frames, frame{})
	s.emitEv(telemetry.KindFrame, 0, 0, int64(s.FrameDepth()))
	return s.FrameDepth(), nil
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
	d := s.FrameDepth()
	if d == 0 {
		return 0, ErrNoFrame
	}
	f := &s.frames[d]
	s.retractFrame(f.clauses)
	// Frame d is the deepest, so every learned clause tagged d or deeper
	// is on its list.
	for _, ci := range f.learned {
		if !s.ar.deleted(ci) {
			s.dropLearned(ci)
		}
	}
	*f = frame{}
	s.frames = s.frames[:d]
	if s.lastResult == False && d <= s.falseDepth {
		s.lastResult = Unknown
	}
	if s.ar.wasted > 0 && 2*s.ar.wasted >= s.ar.end()-s.origEnd {
		s.compactLearned()
	}
	s.emitEv(telemetry.KindFrame, 0, 1, int64(d-1))
	return d - 1, nil
}

// AddClause conjoins c to the formula at the current frame depth (depth 0:
// permanently). The clause is universally reduced against the prefix
// first; a reduction with no existential literal is a contradiction
// (Lemma 4) recorded on the current frame, making Solve return False
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
	depth := s.FrameDepth()
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
		s.frames[depth].contradiction = true
		s.emitEv(telemetry.KindFrame, 0, 2, int64(depth))
		return nil
	}
	s.dropAllCubes()
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
// is installed, so no cube is dropped and no frame tag is involved.
func (s *Solver) assumeRoot(l code) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	if s.lastResult == True {
		s.lastResult = Unknown
	}
	f := &s.frames[s.FrameDepth()]
	f.assumed = append(f.assumed, l)
	s.emitEv(telemetry.KindFrame, 0, 3, int64(s.FrameDepth()))
	return nil
}

// assertRoot rebuilds level 0 on the empty trail a session operation
// leaves: it asserts every live unit constraint, then every live root
// assumption, and reports false when an assumption is false there. A unit
// clause asserts its literal and a unit cube the complement of its
// universal; a unit whose literal is already false is left to the watcher
// visit that reports it. solve calls it before searching. A resumed search
// finds everything assigned: nothing below level 1 is unwound while a
// search runs, and a learned unit is asserted as it is learned.
func (s *Solver) assertRoot() bool {
	assert := func(l code, why reasonKind, reasonCon int) {
		if s.level != 0 {
			invariant.Violated("core: root literal %d unassigned at decision level %d", l.lit(), s.level)
		}
		s.assign(l, why, reasonCon)
	}
	for _, ci := range s.units {
		if s.ar.deleted(ci) {
			continue
		}
		l := s.ar.lit(ci, 0)
		if s.ar.isCube(ci) {
			l ^= 1
		}
		if s.val[l] == undef {
			assert(l, reasonConstraint, ci)
		}
	}
	for i := range s.frames {
		for _, l := range s.frames[i].assumed {
			switch s.val[l] {
			case vFalse:
				return false
			case undef:
				assert(l, reasonAssumption, -1)
			}
		}
	}
	return true
}

// installRuntimeClause installs a validated, universally reduced clause as
// a runtime original on the empty trail (beginOp): into the arena (learned
// flag off, tagged with its frame depth), the occurrence and heuristic
// counters, the residual-matrix bookkeeping, the watcher tables, its
// frame's clause and cover lists, and, for a unit clause, the units list.
// No literal is assigned, so the clause joins the residual matrix and its
// watches are placed as for a construction-time original.
func (s *Solver) installRuntimeClause(lits []code, depth int) {
	id := s.ar.alloc(lits, false, false)
	s.ar.setFrame(id, depth)
	s.nOriginalClauses++
	s.numUnsatOriginal++
	for _, l := range lits {
		s.occ[l] = append(s.occ[l], int32(id))
		s.counter[l]++
		s.activeOcc[l]++
	}
	s.initWatches(id)
	fr := &s.frames[depth]
	fr.clauses = append(fr.clauses, id)
	if s.coverable(id) {
		fr.cover = append(fr.cover, int32(id))
	}
	if len(lits) == 1 {
		s.units = append(s.units, id)
	}
}

// retractFrame retracts the runtime originals of the deepest frame, in
// install order: the inverse of installRuntimeClause for each, apart from
// the frame's own lists, which leave with its record. It relies on a
// suffix property. AddClause installs at the current depth, and at a
// shallower depth only after the deeper frames popped, so every
// occurrence list holds the construction-time originals and then the
// runtime ones in the frames' depth order, each frame's in install order;
// compaction rebinds refs in place. The deepest frame's clauses are
// therefore the last entries of every occurrence list that holds them,
// and each is cut off its end in O(1). Pop runs on the empty trail, so
// every clause is in the residual matrix; its bookkeeping
// (numUnsatOriginal, activeOcc, pureCand) runs per clause in install
// order. Watcher entries are dropped lazily like any deleted constraint's.
func (s *Solver) retractFrame(cls []int) {
	for _, ci := range cls {
		s.numUnsatOriginal--
		for k, n := 0, s.ar.size(ci); k < n; k++ {
			m := s.ar.lit(ci, k)
			s.activeOcc[m]--
			if s.activeOcc[m] == 0 {
				s.pureCand = append(s.pureCand, m.v())
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
	s.nOriginalClauses -= len(cls)
}

// dropAllCubes deletes every learned cube — the AddClause side of the cube
// lifecycle (see the file comment). The trail is empty, so no entry cites
// a cube.
func (s *Solver) dropAllCubes() {
	if s.learnedCubes == 0 {
		return
	}
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.isCube(ci) {
			s.dropLearned(ci)
		}
	}
}
