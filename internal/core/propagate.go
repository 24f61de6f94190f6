package core

import (
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// event reported by propagateAll.
type event int

const (
	evNone event = iota
	// evConflict carries the id of a clause whose existential literals are
	// all false (a contradictory residual clause, Lemma 4).
	evConflict
	// evSolution carries the id of a cube whose literals are all true, or
	// -1 when the matrix became empty (all original clauses satisfied).
	evSolution
)

// propagateAll runs unit propagation (clauses and cubes) to fixpoint via
// the watched-literal engine (watch.go), returning the first conflict or
// solution found.
//
//qbf:hotpath
func (s *Solver) propagateAll() (event, int) {
	if s.numUnsatOriginal == 0 {
		return evSolution, -1
	}
	return s.propagateWatched()
}

// clauseSatisfied updates the pure-literal occurrence counts when an
// original clause gains its first true literal (it leaves the residual
// matrix).
//
//qbf:hotpath
func (s *Solver) clauseSatisfied(ci int) {
	s.numUnsatOriginal--
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		m := s.ar.lit(ci, k)
		s.activeOcc[m]--
		if s.activeOcc[m] == 0 && s.val[m] == undef {
			s.pureCand = append(s.pureCand, m.v())
		}
	}
}

// clauseUnsatisfied reverses clauseSatisfied on backtracking.
//
//qbf:hotpath
func (s *Solver) clauseUnsatisfied(ci int) {
	s.numUnsatOriginal++
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		s.activeOcc[s.ar.lit(ci, k)]++
	}
}

// fixPures assigns pure (monotone) literals: an existential literal l with
// l̄ absent from the residual original matrix, or a universal literal l
// absent itself (Section III). Purity is judged against original clauses
// only, which keeps the rule sound in the presence of learning; learned
// constraints mentioning the literal merely lose propagation strength.
// fixPures reports whether it assigned anything.
func (s *Solver) fixPures() bool {
	if s.opt.DisablePureLiterals {
		s.pureCand = s.pureCand[:0]
		return false
	}
	// Root-level pure assignments are valid in incremental sessions too:
	// every session operation unwinds the whole trail (beginOp), so each
	// Solve judges purity against the occurrence sets it searches.
	assigned := false
	for len(s.pureCand) > 0 {
		v := s.pureCand[len(s.pureCand)-1]
		s.pureCand = s.pureCand[:len(s.pureCand)-1]
		p := code(v) << 1 // v's positive literal; p|1 is the negative one
		if s.val[p] != undef {
			continue
		}
		pos, neg := s.activeOcc[p], s.activeOcc[p|1]
		var l code
		switch {
		case s.quant[v] == qbf.Exists && neg == 0:
			l = p
		case s.quant[v] == qbf.Exists && pos == 0:
			l = p | 1
		case s.quant[v] == qbf.Forall && pos == 0:
			l = p
		case s.quant[v] == qbf.Forall && neg == 0:
			l = p | 1
		default:
			continue
		}
		s.assign(l, reasonPure, -1)
		s.stats.PureAssignments++
		assigned = true
	}
	return assigned
}

// addLearned installs a learned clause or cube into the arena and gives it
// its two watches. frame is the deepest assumption frame the derivation
// depended on (0 outside incremental sessions, and always 0 for cubes: a
// cube is an implicant of the current matrix, and popping a frame only
// shrinks the matrix, so every pop preserves it — see incremental.go for
// why AddClause, not Pop, invalidates cubes); a clause with a frame above 0
// joins that frame's learned list, which Pop drops. A unit joins the units
// list that a session's Solve rebuilds level 0 from. The caller must
// ensure the propagation queue is drained (qhead == len(trail)).
func (s *Solver) addLearned(lits []code, isCube bool, frame int) int {
	s.checkLearnedConstraint(lits, isCube)
	id := s.ar.alloc(lits, isCube, true)
	s.ar.setFrame(id, frame)
	s.initWatches(id)
	if len(lits) == 1 {
		s.units = append(s.units, id)
	}
	if frame > 0 {
		fr := &s.frames[frame]
		fr.learned = append(fr.learned, id)
	}
	for _, l := range lits {
		s.counter[l]++
	}
	s.learnedBytes += constraintBytes(len(lits))
	if s.learnedBytes > s.stats.PeakLearnedBytes {
		s.stats.PeakLearnedBytes = s.learnedBytes
	}
	kind := int64(0)
	if isCube {
		kind = 1
		s.learnedCubes++
		s.stats.LearnedCubes++
	} else {
		s.learnedClauses++
		s.stats.LearnedClauses++
	}
	s.emitLitsEv(telemetry.KindLearn, lits, kind)
	if s.learnHook != nil {
		out := make([]qbf.Lit, len(lits))
		for i, l := range lits {
			out[i] = l.lit()
		}
		s.learnHook(out, isCube)
	}
	return id
}

// reduceDB discards low-activity learned constraints of the given kind when
// their number exceeds the configured bound. Constraints currently acting
// as a reason on the trail are kept.
func (s *Solver) reduceDB(isCube bool) {
	n := s.learnedClauses
	if isCube {
		n = s.learnedCubes
	}
	if n <= s.opt.MaxLearned {
		return
	}
	s.reduceDBNow(isCube)
}

// reduceDBNow is the unconditional reduction round behind reduceDB and the
// memory governor: it discards learned constraints of the given kind at or
// below the median activity, regardless of how many are live. Constraints
// currently acting as a reason on the trail are kept. Deleted constraints
// are only flagged here; once they dominate the learned region the arena is
// compacted in place and every ref-holding structure rebound, so the memory
// actually returns (compactLearned).
func (s *Solver) reduceDBNow(isCube bool) {
	locked := make(map[int]bool)
	for _, l := range s.trail {
		v := l.v()
		if s.reason[v] == reasonConstraint {
			locked[s.reasonC[v]] = true
		}
	}
	// Median activity of the kind under reduction. The learned region also
	// holds the runtime-added original clauses of incremental sessions
	// (learned flag off); those belong to their frames, not to the learned
	// databases, and are skipped.
	var acts []float64
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if !s.ar.deleted(ci) && s.ar.learned(ci) && s.ar.isCube(ci) == isCube {
			acts = append(acts, s.ar.activity(ci))
		}
	}
	if len(acts) == 0 {
		return
	}
	pivot := quickMedian(acts)
	for ci := s.origEnd; ci < s.ar.end(); ci = s.ar.next(ci) {
		if s.ar.deleted(ci) || !s.ar.learned(ci) || s.ar.isCube(ci) != isCube ||
			locked[ci] || s.ar.activity(ci) > pivot {
			continue
		}
		// Flag only: headers stay readable, so occurrence and watcher lists
		// drop stale refs lazily until the next compaction purges them.
		s.dropLearned(ci)
	}
	if s.ar.wasted > 0 && 2*s.ar.wasted >= s.ar.end()-s.origEnd {
		s.compactLearned()
	}
}

// dropLearned removes one live learned constraint: heuristic counters,
// byte accounting, the live-count of its kind, and the arena deletion flag.
// It is the shared deletion step of reduceDBNow and of the incremental
// frame operations (popping a frame drops the learned clauses tagged with
// it; AddClause drops every learned cube).
func (s *Solver) dropLearned(ci int) {
	n := s.ar.size(ci)
	for k := 0; k < n; k++ {
		s.counter[s.ar.lit(ci, k)]--
	}
	s.learnedBytes -= constraintBytes(n)
	s.ar.del(ci)
	if s.ar.isCube(ci) {
		s.learnedCubes--
	} else {
		s.learnedClauses--
	}
}

// compactLearned slides the live learned constraints over the deleted ones
// (construction-time originals never move), then rebinds every structure
// holding arena refs: occurrence lists, watcher lists, the trail reasons,
// the units list, the frames' clause, cover and learned lists, and the
// satisfied-clause stack. Deleted refs are purged from the lists first —
// after compaction their targets no longer exist. Callers must ensure no
// conflict/solution event is pending (the same safe-point contract as
// reduceDBNow).
func (s *Solver) compactLearned() {
	reclaimed := s.ar.wasted
	for i := range s.occ {
		occ := s.occ[i]
		w := 0
		for _, ci := range occ {
			if !s.ar.deleted(int(ci)) {
				occ[w] = ci
				w++
			}
		}
		s.occ[i] = occ[:w]
	}
	purge := func(lists [][]watcher) {
		for i := range lists {
			ws := lists[i]
			w := 0
			for _, e := range ws {
				if !s.ar.deleted(int(e.c)) {
					ws[w] = e
					w++
				}
			}
			lists[i] = ws[:w]
		}
	}
	purge(s.watchCl)
	purge(s.watchCu)
	live := func(refs []int) []int {
		w := 0
		for _, ci := range refs {
			if !s.ar.deleted(ci) {
				refs[w] = ci
				w++
			}
		}
		return refs[:w]
	}
	s.units = live(s.units)
	for fi := range s.frames {
		s.frames[fi].learned = live(s.frames[fi].learned)
	}

	olds, news := s.ar.compactFrom(s.origEnd)
	if len(olds) > 0 {
		for i := range s.occ {
			for j, ci := range s.occ[i] {
				s.occ[i][j] = rebind(ci, olds, news)
			}
		}
		rb := func(lists [][]watcher) {
			for i := range lists {
				for j := range lists[i] {
					lists[i][j].c = rebind(lists[i][j].c, olds, news)
				}
			}
		}
		rb(s.watchCl)
		rb(s.watchCu)
		for _, l := range s.trail {
			v := l.v()
			if s.reason[v] == reasonConstraint {
				s.reasonC[v] = int(rebind(int32(s.reasonC[v]), olds, news))
			}
		}
		rebindRefs := func(refs []int) {
			for i := range refs {
				refs[i] = int(rebind(int32(refs[i]), olds, news))
			}
		}
		rebindRefs(s.units)
		// Frame clause and cover lists hold only live refs: frame
		// originals are deleted exclusively by the Pop that discards their
		// record, and the base's construction-time originals never move.
		// Rebinding in place keeps every list's order, so the suffix
		// property retractFrame relies on survives.
		for fi := range s.frames {
			f := &s.frames[fi]
			rebindRefs(f.clauses)
			rebindRefs(f.learned)
			for i := range f.cover {
				f.cover[i] = rebind(f.cover[i], olds, news)
			}
		}
		// satStack holds live originals only (retractFrame drops entries
		// eagerly), and compaction keeps their tags, so the stack stays
		// sorted.
		for i := range s.satStack {
			s.satStack[i] = rebind(s.satStack[i], olds, news)
		}
	}
	s.emitEv(telemetry.KindReduce, 0, int64(reclaimed), 2)
}

// quickMedian returns an approximate median (exact for odd lengths) by
// selection; the slice is reordered.
func quickMedian(a []float64) float64 {
	k := len(a) / 2
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}
