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
// solution found. Under Options.Incremental, clauses added since the last
// fixpoint are first woken by a full scan — their watcher entries were
// installed against an assignment the watch machinery never observed
// changing, so an install-time unit or conflict would otherwise be silent.
//
//qbf:hotpath
func (s *Solver) propagateAll() (event, int) {
	if len(s.wakeRefs) > 0 {
		if ev, ci := s.drainWakes(); ev != evNone {
			return ev, ci
		}
	}
	if s.numUnsatOriginal == 0 {
		return evSolution, -1
	}
	return s.propagateWatched()
}

// drainWakes scans every pending runtime-added clause against the actual
// variable values. A unit wake assigns its forced literal (dequeued by the
// caller's watcher loop); the first conflict becomes the fixpoint's event,
// and the reporting clause stays queued — events are re-derived on the next
// propagateAll until a frame operation defuses the clause or the search
// ends. Deleted refs (a popped frame) are dropped.
func (s *Solver) drainWakes() (event, int) {
	for i := 0; i < len(s.wakeRefs); i++ {
		ci := s.wakeRefs[i]
		if s.ar.deleted(ci) {
			continue
		}
		if ev, eci := s.scanState(ci); ev != evNone {
			s.wakeRefs = append(s.wakeRefs[:0], s.wakeRefs[i:]...)
			return ev, eci
		}
	}
	s.wakeRefs = s.wakeRefs[:0]
	return evNone, -1
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

// scanState derives a clause's state from the actual variable values
// alone: it enqueues the forced literal when the clause is unit and
// reports a conflict when it is contradictory. Because it never trusts
// cached counters or watch positions, callers may use it on clauses whose
// incremental state is stale — the runtime-added and rewoken clauses of
// the incremental session path (wakeRefs holds no cubes); a stale watch can
// at worst defer an event to the visit that repairs it, never fabricate
// one.
//
//qbf:hotpath
func (s *Solver) scanState(ci int) (event, int) {
	n := s.ar.size(ci)
	var e code
	undefE := 0
	for k := 0; k < n; k++ {
		m := s.ar.lit(ci, k)
		switch s.val[m] {
		case vTrue:
			return evNone, -1
		case undef:
			if s.quant[m.v()] == qbf.Exists {
				undefE++
				if undefE > 1 {
					return evNone, -1
				}
				e = m
			}
		}
	}
	if undefE == 0 {
		// Residual clause has no existential literal: contradictory
		// under Lemma 4.
		return evConflict, ci
	}
	// Candidate unit (Lemma 5): e is forced unless some unassigned
	// universal m of the clause has m ≺ e.
	for k := 0; k < n; k++ {
		m := s.ar.lit(ci, k)
		if m != e && s.val[m] == undef && s.before(m.v(), e.v()) {
			return evNone, -1
		}
	}
	s.assign(e, reasonConstraint, ci)
	return evNone, -1
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
	// purity can only be broken by a clause mentioning the variable, Pop
	// only shrinks the occurrence sets, and AddClause unwinds any root
	// pure assignment whose variable the incoming clause mentions
	// (invalidatePures) before installing it, as a root Assume does for
	// its own variable.
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
// why AddClause, not Pop, invalidates cubes). The caller must ensure the
// propagation queue is drained (qhead == len(trail)).
func (s *Solver) addLearned(lits []code, isCube bool, frame int) int {
	s.checkLearnedConstraint(lits, isCube)
	id := s.ar.alloc(lits, isCube, true)
	s.ar.setFrame(id, frame)
	s.initWatches(id)
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
// the incremental wake queue, the per-frame clause lists, and the
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
	if len(s.wakeRefs) > 0 {
		w := 0
		for _, ci := range s.wakeRefs {
			if !s.ar.deleted(ci) {
				s.wakeRefs[w] = ci
				w++
			}
		}
		s.wakeRefs = s.wakeRefs[:w]
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
		for i := range s.wakeRefs {
			s.wakeRefs[i] = int(rebind(int32(s.wakeRefs[i]), olds, news))
		}
		// Frame clause lists hold only live refs: frame originals are
		// deleted exclusively by the Pop that discards their list. The
		// runtime-original lists are likewise all-live (retractFrame cuts
		// them eagerly). Rebinding in place keeps every list's order, so
		// the suffix property retractFrame relies on survives.
		for fi := range s.frames {
			cl := s.frames[fi].clauses
			for j := range cl {
				cl[j] = int(rebind(int32(cl[j]), olds, news))
			}
		}
		for i := range s.runtimeOrig {
			s.runtimeOrig[i] = int(rebind(int32(s.runtimeOrig[i]), olds, news))
		}
		for i := range s.coverRuntime {
			s.coverRuntime[i] = rebind(s.coverRuntime[i], olds, news)
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
