package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/invariant"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// value of a variable on the trail.
const (
	undef int8 = iota
	vTrue
	vFalse
)

// reasonKind says why a variable was assigned.
type reasonKind int8

const (
	reasonNone       reasonKind = iota
	reasonDecision              // heuristic branch (opens a decision level)
	reasonFlipped               // second branch of a decision (opens a level)
	reasonConstraint            // unit propagation from a clause or cube
	reasonPure                  // pure (monotone) literal fixing
)

// Constraints (clauses and cubes) live in the arena clause store (see
// arena.go): one flat []uint32 region, integer refs, the two watched
// literals at positions 0 and 1 of every constraint.

// blockInfo caches per-block structure derived from the prefix.
type blockInfo struct {
	quant      qbf.Quant
	level      int
	vars       []qbf.Var
	parent     int    // enclosing block in the quantifier tree; -1 for a root
	children   []int  // child blocks in the quantifier tree
	guards     []int  // blocks whose variables all ≺ ours (alternation-separated ancestors)
	dependents []int  // inverse of guards
	unassigned int    // unassigned variables in this block
	guardOpen  int    // number of guards with unassigned > 0
	stamp      uint64 // last reduction that marked this block (reduceSet)
}

// Solver is a QCDCL engine over a (possibly non-prenex) QBF.
type Solver struct {
	opt Options

	nVars   int
	quant   []qbf.Quant // 1-based
	sd      []int       // structural DFS interval of the variable's block
	sf      []int
	plevel  []int // prefix level
	blockOf []int // block index per variable; -1 for ghost variables
	blocks  []blockInfo

	// eReducible marks existential variables whose block has no universal
	// block below it in the quantifier tree: existential reduction always
	// deletes such literals from cubes, so cover construction skips them.
	eReducible []bool

	// ar holds every constraint: originals first (their refs are stable,
	// the region [0, origEnd) never moves), then learned, compacted in
	// place as reduction rounds delete them.
	ar               arena
	origEnd          int // arena offset one past the last original clause
	nOriginalClauses int
	learnedClauses   int
	learnedCubes     int

	// occ: literal index → refs of the original clauses containing that
	// literal (satWalk's residual-matrix walk on every dequeued literal);
	// learned constraints are reached through the watcher lists instead.
	// Under Options.Incremental, clauses added at runtime join these lists
	// on AddClause and are eagerly removed again when their frame pops —
	// satWalk does not test the deleted flag.
	occ [][]int32

	// satStack holds the refs of the original clauses that have left the
	// residual matrix, in non-decreasing order of their satisfaction tags
	// (arena.go): satWalk pushes a clause when the first literal of it is
	// dequeued true, and unwinding the trail pops every clause whose
	// satisfying literal it removes, without walking occurrence lists.
	satStack []int32

	// Watcher lists, keyed by the literal whose assignment triggers the
	// visit; see watch.go.
	watchCl [][]watcher
	watchCu [][]watcher

	// activeOcc counts, per literal, the original clauses that currently
	// have no true literal and contain the literal: the paper's dynamic
	// matrix occurrence used by pure literal fixing.
	activeOcc []int

	// numUnsatOriginal is the number of original clauses with no true
	// literal; 0 means the matrix is empty (Section II base case: true).
	numUnsatOriginal int

	value    []int8
	dlevel   []int
	reason   []reasonKind
	reasonC  []int
	trailPos []int

	trail      []qbf.Lit
	qhead      int
	level      int
	levelStart []int // levelStart[k] = trail index where level k starts

	pureCand []qbf.Var

	// Heuristic state (see heuristic.go).
	counter     []int // per literal: occurrences in active constraints
	lastCounter []int
	score       []float64
	blockBonus  []float64
	scoreTicks  int
	scoreInc    float64

	// Restart state (Luby sequence).
	restartEvents int64 // conflicts+solutions since the last restart
	restartLimit  int64
	lubyIndex     int

	stats      Stats
	trivial    Verdict // True/False decided during construction, else Unknown
	lastResult Verdict // outcome of the most recent Solve call

	// Incremental session state (Options.Incremental; see incremental.go).
	// frames is the stack of open assumption frames; falseFrom is the
	// shallowest frame depth at which an added clause universally reduced
	// to a contradiction (-1: none), making the formula false while that
	// frame lives; wakeRefs holds runtime-added clauses whose state against
	// the current assignment has not been scanned yet — the next
	// propagateAll drains them before trusting the watcher tables.
	// runtimeOrig lists the live runtime-added original clauses (which sit
	// above origEnd, interleaved with learned constraints), so matrix-wide
	// walks like coverCube reach them without scanning the learned region.
	// opDirty is set by session operations and consumed by the next Solve,
	// which restarts the Luby schedule: the new query should explore from
	// short restart intervals again instead of inheriting an arbitrarily
	// long interval earned on a different formula.
	frames      []frame
	falseFrom   int
	wakeRefs    []int
	runtimeOrig []int
	opDirty     bool

	ws       workSet // reusable analysis working set
	stampGen uint64  // last reduceSet generation; block stamps compare against it

	// dbgPrefix retains the finalized input prefix for the deep invariant
	// checker; nil unless built with -tags qbfdebug and CheckInvariants on.
	dbgPrefix *qbf.Prefix

	deadline          time.Time
	cancelCh          <-chan struct{} // context Done channel; nil when uncancellable
	learnedBytes      int64           // estimated bytes held by live learned constraints
	trace             func(string)
	learnHook         func(lits []qbf.Lit, isCube bool)
	debugSolutionHook func(assignedU, totalU int)

	// importHook, when non-nil, is polled at quiescent propagation
	// fixpoints for constraints learned by sibling solvers (see share.go);
	// importing suppresses the learnHook while an import is installed, so
	// exchanged constraints are never echoed back to the exchange.
	importHook func() []Shared
	importing  bool

	// dbgFormula retains the normalized working formula for the qbfdebug
	// import oracle; nil unless built with -tags qbfdebug and
	// CheckInvariants on (share_qbfdebug.go).
	dbgFormula *qbf.QBF

	// faultHook, when non-nil, fires at every propagation fixpoint with
	// the fixpoint ordinal; the qbfdebug fault-injection harness uses it
	// to force panics and cancellations at deterministic points. The
	// setter only compiles under -tags qbfdebug (fault_qbfdebug.go).
	faultHook func(fixpoint int64)
}

// litIdx maps a literal to a dense index: positive 2v, negative 2v+1.
func litIdx(l qbf.Lit) int {
	v := int(l.Var())
	if l > 0 {
		return 2 * v
	}
	return 2*v + 1
}

// NewSolver prepares a solver for q. The input is deep-copied: free
// variables are bound existentially, the matrix is normalized (tautologies
// dropped) and universally reduced (Lemma 3). In ModeTotalOrder the input
// prefix must be prenex, as for any classic prenex solver.
func NewSolver(q *qbf.QBF, opt Options) (*Solver, error) {
	work := q.Clone()
	// Normalize first (duplicate literals and tautologies are benign and
	// common in DIMACS files), then validate what normalization cannot
	// repair, then bind the remaining free variables.
	work.NormalizeMatrix()
	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input: %w", err)
	}
	work.BindFreeVars()
	work.Prefix.Finalize()
	if _, err := work.ScopeConsistent(); err != nil {
		return nil, fmt.Errorf("core: input not scope-consistent: %w", err)
	}
	if opt.Mode == ModeTotalOrder && !work.Prefix.IsPrenex() {
		return nil, fmt.Errorf("core: total-order mode requires a prenex QBF; prenex the input first")
	}
	if opt.MaxLearned == 0 {
		opt.MaxLearned = 4000
	}

	n := work.MaxVar()
	s := &Solver{
		opt:         opt,
		nVars:       n,
		quant:       make([]qbf.Quant, n+1),
		sd:          make([]int, n+1),
		sf:          make([]int, n+1),
		plevel:      make([]int, n+1),
		blockOf:     make([]int, n+1),
		occ:         make([][]int32, 2*(n+1)),
		activeOcc:   make([]int, 2*(n+1)),
		value:       make([]int8, n+1),
		dlevel:      make([]int, n+1),
		reason:      make([]reasonKind, n+1),
		reasonC:     make([]int, n+1),
		trailPos:    make([]int, n+1),
		counter:     make([]int, 2*(n+1)),
		lastCounter: make([]int, 2*(n+1)),
		score:       make([]float64, 2*(n+1)),
		trivial:     Unknown,
		falseFrom:   -1,
	}
	s.watchCl = make([][]watcher, 2*(n+1))
	s.watchCu = make([][]watcher, 2*(n+1))

	// Variables within 1..n that are bound by no block and occur in no
	// clause ("ghosts", e.g. quantifiers dropped by miniscoping) take no
	// part in solving: blockOf stays -1 and they are never assigned.
	for v := range s.blockOf {
		s.blockOf[v] = -1
	}

	p := work.Prefix
	pblocks := p.Blocks()
	s.blocks = make([]blockInfo, len(pblocks))
	s.blockBonus = make([]float64, len(pblocks))
	for i, b := range pblocks {
		bi := blockInfo{
			quant:      b.Quant,
			level:      b.Level(),
			vars:       append([]qbf.Var(nil), b.Vars...),
			parent:     -1,
			unassigned: len(b.Vars),
		}
		if b.Parent() != nil {
			bi.parent = b.Parent().ID()
		}
		for _, c := range b.Children {
			bi.children = append(bi.children, c.ID())
		}
		// Guards: ancestor blocks separated by at least one alternation,
		// i.e. whose variables all ≺ ours. Along a root path the prefix
		// level grows exactly at alternations, so "separated by an
		// alternation" is "has a strictly smaller level".
		for a := b.Parent(); a != nil; a = a.Parent() {
			if a.Level() < b.Level() {
				bi.guards = append(bi.guards, a.ID())
			}
		}
		s.blocks[i] = bi
		bsd, bsf := b.Interval()
		for _, v := range b.Vars {
			s.quant[v] = b.Quant
			s.sd[v] = bsd
			s.sf[v] = bsf
			s.plevel[v] = p.Level(v)
			s.blockOf[v] = i
		}
	}
	for i := range s.blocks {
		for _, g := range s.blocks[i].guards {
			s.blocks[g].dependents = append(s.blocks[g].dependents, i)
			if s.blocks[g].unassigned > 0 {
				s.blocks[i].guardOpen++
			}
		}
	}

	// eReducible: existential variables with no universal block below.
	s.eReducible = make([]bool, n+1)
	hasUniversalBelow := make([]bool, len(s.blocks))
	for i := len(s.blocks) - 1; i >= 0; i-- { // post-order over DFS preorder
		hub := s.blocks[i].quant == qbf.Forall
		for _, c := range s.blocks[i].children {
			if hasUniversalBelow[c] {
				hub = true
			}
		}
		hasUniversalBelow[i] = hub
	}
	for v := qbf.MinVar; v.Int() <= n; v++ {
		b := s.blockOf[v]
		s.eReducible[v] = b >= 0 && s.quant[v] == qbf.Exists && !hasUniversalBelow[b]
	}

	// Deep invariant layer (no-op unless built with -tags qbfdebug and
	// opt.CheckInvariants is set): validate the finalized prefix and pin
	// the solver's O(1) ≺ test to the structural Prefix.Before. The import
	// oracle additionally retains the working formula so constraints
	// arriving through SetImportHook can be re-derived semantically.
	s.attachInvariantPrefix(p)
	s.attachImportOracle(work)

	// Install the (universally reduced) original clauses.
	s.levelStart = append(s.levelStart, 0)
	for _, c := range work.Matrix {
		rc := qbf.UniversalReduce(p, c)
		hasE := false
		for _, l := range rc {
			if s.quant[l.Var()] == qbf.Exists {
				hasE = true
				break
			}
		}
		if len(rc) == 0 || !hasE {
			// Contradictory clause (Lemma 4, or the empty clause of
			// Lemma 3). Incremental solvers record it as a base-frame
			// falsity and finish construction: Pop can never reach below
			// the base, so the verdict is permanent, but the solver must
			// stay fully initialized for the session ops. One-shot solvers
			// keep the historical short-circuit.
			if opt.Incremental {
				s.falseFrom = 0
				continue
			}
			s.trivial = False
			return s, nil
		}
		s.addOriginalClause(rc)
	}
	s.origEnd = s.ar.end()
	s.numUnsatOriginal = s.nOriginalClauses
	if s.numUnsatOriginal == 0 && !opt.Incremental {
		// Empty matrix: trivially true. Incremental solvers skip the
		// shortcut — AddClause may repopulate the matrix — and let the
		// search derive the empty-matrix solution (Section II base case).
		s.trivial = True
		return s, nil
	}

	// Initial heuristic scores: the occurrence counters (Section VI).
	s.initScores()
	s.lubyIndex = 1
	s.restartLimit = luby(1) * restartUnit

	// All bound variables start as pure-literal candidates; fixPures
	// verifies. Ghost variables never enter the queue.
	for v := qbf.MinVar; v.Int() <= n; v++ {
		if s.blockOf[v] >= 0 {
			s.pureCand = append(s.pureCand, v)
		}
	}
	s.deepCheck()
	return s, nil
}

// SetTrace installs a debug trace callback (nil to disable).
func (s *Solver) SetTrace(f func(string)) { s.trace = f }

// SetLearnHook installs a callback invoked with every learned constraint
// (clause or cube) as it is added. Test suites use it to audit the
// soundness of the learning machinery against the semantic oracle.
func (s *Solver) SetLearnHook(f func(lits []qbf.Lit, isCube bool)) { s.learnHook = f }

// Stats returns search statistics accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

func (s *Solver) addOriginalClause(c qbf.Clause) int {
	id := s.ar.alloc(c, false, false)
	s.nOriginalClauses++
	for _, l := range c {
		s.occ[litIdx(l)] = append(s.occ[litIdx(l)], int32(id))
		s.activeOcc[litIdx(l)]++
		s.counter[litIdx(l)]++
	}
	s.initWatches(id)
	return id
}

// Solve runs the search under ctx: cancellation and the context
// deadline are polled at every propagation fixpoint (time checks gated to
// every pollPeriod-th fixpoint so time.Now stays off the per-propagation
// path). An expired or cancelled ctx yields Unknown with StopCancelled or
// StopTimeout in Stats; a nil ctx is treated as context.Background().
//
// Solve is resumable: after an Unknown return the solver's state is
// exactly the quiescent fixpoint the stop was observed at, and calling
// Solve again continues the same search (typically after raising a
// budget with SetNodeLimit, or with a fresh context). After a True/False
// verdict the search is over and every further call returns the verdict
// immediately.
func (s *Solver) Solve(ctx context.Context) Verdict {
	if s.lastResult != Unknown {
		return s.lastResult
	}
	start := time.Now()
	defer func() { s.stats.Time += time.Since(start) }()
	s.stats.StopReason = StopNone
	s.deadline = time.Time{}
	s.cancelCh = nil
	if s.opt.TimeLimit > 0 {
		s.deadline = start.Add(s.opt.TimeLimit)
	}
	if ctx != nil {
		if ctx.Err() != nil {
			s.stats.StopReason = StopCancelled
			s.lastResult = Unknown
			s.emitEv(telemetry.KindStop, 0, int64(Unknown), int64(StopCancelled))
			return Unknown
		}
		s.cancelCh = ctx.Done()
		if d, ok := ctx.Deadline(); ok && (s.deadline.IsZero() || d.Before(s.deadline)) {
			s.deadline = d
		}
	}
	if s.opDirty {
		s.opDirty = false
		s.restartEvents = 0
		s.lubyIndex = 1
		s.restartLimit = luby(1) * restartUnit
		s.initScores()
	}
	s.lastResult = s.solve()
	s.emitEv(telemetry.KindStop, 0, int64(s.lastResult), int64(s.stats.StopReason))
	return s.lastResult
}

// pollPeriod gates the time.Now/channel checks of pollStop: budgets are
// examined every pollPeriod-th propagation fixpoint, so a run dominated by
// propagation and backtracking (zero decisions) still honors its limits,
// while the per-fixpoint cost stays one counter increment and one integer
// compare.
const pollPeriod = 64

// pollStop is the per-fixpoint budget check. The memory budget is an
// integer compare and runs on every call; cancellation and deadline
// involve a channel operation and a clock read and are gated to every
// pollPeriod-th fixpoint.
func (s *Solver) pollStop() StopReason {
	if sr := s.governMemory(); sr != StopNone {
		return sr
	}
	if s.stats.Fixpoints%pollPeriod != 0 {
		return StopNone
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return StopTimeout
	}
	if s.cancelCh != nil {
		select {
		case <-s.cancelCh:
			return StopCancelled
		default:
		}
	}
	return StopNone
}

func (s *Solver) solve() Verdict {
	if s.trivial != Unknown {
		return s.trivial
	}
	if s.lastResult != Unknown {
		// The formula is already decided and unchanged since (session ops
		// reset the verdicts they can invalidate). Re-entering the search
		// loop here would be worse than wasteful: a terminal root conflict
		// leaves its falsified clause's triggers consumed on the level-0
		// trail, and a resumed search cannot re-detect it.
		return s.lastResult
	}
	if s.falseFrom >= 0 {
		// A clause added at frame depth falseFrom universally reduced to a
		// contradiction; the formula is false while that frame lives (Pop
		// clears the record, ops reset lastResult).
		return False
	}

	for {
		ev, ci := s.propagateAll()
		s.stats.Fixpoints++
		s.emitEv(telemetry.KindFixpoint, 0, int64(len(s.trail)), s.stats.Fixpoints)
		s.injectFault(s.stats.Fixpoints)
		if ev == evNone && s.importHook != nil {
			// Quiescent fixpoint: install constraints shared by sibling
			// solvers. An import that is terminal for the whole formula
			// decides it right here; one that is conflicting or fired under
			// the current assignment becomes this fixpoint's event and is
			// handled below exactly like a propagation event; a merely unit
			// import enqueues its forced literal, which the trail-drain
			// check after the budget poll sends back to propagateAll.
			var terminal Verdict
			ev, ci, terminal = s.importShared()
			if terminal != Unknown {
				return terminal
			}
		}
		// The fixpoint's event is fully handled before any budget check,
		// for two reasons. Soundness: the memory governor must never run
		// while ci is pending — a conflicting/fired learned constraint is
		// not a trail reason, so reduceDBNow could delete it and null its
		// literals, and conflict/solution analysis over an emptied working
		// set reads as a terminal verdict, i.e. a wrong False/True.
		// Completeness: a terminal verdict already in hand must be
		// returned, not discarded as Unknown by a limit stop that fires at
		// the same fixpoint.
		switch ev {
		case evConflict:
			s.stats.Conflicts++
			s.emitConstraintEv(telemetry.KindConflict, ci)
			if !s.handleConflict(ci) {
				return False
			}
		case evSolution:
			s.stats.Solutions++
			s.emitConstraintEv(telemetry.KindSolution, ci)
			if s.debugSolutionHook != nil {
				s.debugSolutionHook(s.debugCountUniversals())
			}
			if !s.handleSolution(ci) {
				return True
			}
		}
		// Safe point: analysis is done, and any constraint the next
		// iteration depends on is a trail reason, which the governor's
		// reduction rounds keep locked.
		if sr := s.pollStop(); sr != StopNone {
			s.stats.StopReason = sr
			return Unknown
		}
		if ev != evNone {
			continue
		}
		if s.qhead < len(s.trail) {
			// An imported constraint assigned a unit literal after the
			// propagation fixpoint; drain it before branching.
			continue
		}
		s.deepCheck()
		if s.fixPures() {
			continue
		}
		lit, ok := s.pickBranch()
		if !ok {
			// Unreachable by construction: if any variable is
			// unassigned, a minimal-level block with unassigned
			// variables is always branchable, and a total assignment
			// without a conflict means every original clause is
			// satisfied, which propagateAll reports as a solution.
			invariant.Violated("core: no branchable variable at a propagation fixpoint")
		}
		s.stats.Decisions++
		if s.opt.NodeLimit > 0 && s.stats.Decisions > s.opt.NodeLimit {
			s.stats.StopReason = StopNodeLimit
			return Unknown
		}
		s.decide(lit)
	}
}

// decide opens a new decision level with literal l.
func (s *Solver) decide(l qbf.Lit) {
	s.level++
	if s.level > s.stats.MaxDecisionLevel {
		s.stats.MaxDecisionLevel = s.level
	}
	s.levelStart = append(s.levelStart, len(s.trail))
	s.assign(l, reasonDecision, -1)
	s.emitEv(telemetry.KindDecision, s.plevel[l.Var()], int64(l), s.stats.Decisions)
	if s.trace != nil {
		s.trace(fmt.Sprintf("decide %d @%d", l, s.level)) //lint:allow L4 trace is nil on the hot path
	}
}

// assign makes l true at the current decision level. It only records the
// assignment; the residual matrix and the watches are updated when the
// literal is dequeued by propagateAll.
func (s *Solver) assign(l qbf.Lit, why reasonKind, reasonCon int) {
	v := l.Var()
	if s.value[v] != undef {
		invariant.Violated("core: double assignment of variable %d", v)
	}
	if l > 0 {
		s.value[v] = vTrue
	} else {
		s.value[v] = vFalse
	}
	s.dlevel[v] = s.level
	s.reason[v] = why
	s.reasonC[v] = reasonCon
	s.trailPos[v] = len(s.trail)
	s.trail = append(s.trail, l)

	b := s.blockOf[v]
	s.blocks[b].unassigned--
	if s.blocks[b].unassigned == 0 {
		for _, dep := range s.blocks[b].dependents {
			s.blocks[dep].guardOpen--
		}
	}
}

// litValue returns the current value of literal l.
func (s *Solver) litValue(l qbf.Lit) int8 {
	v := s.value[l.Var()]
	if v == undef {
		return undef
	}
	if (v == vTrue) == (l > 0) {
		return vTrue
	}
	return vFalse
}

// before is the O(1) ≺ test: z's block is a structural ancestor of z”s
// with a strictly smaller prefix level. On alternating trees this is
// exactly the parenthesis-theorem test of Section VI, eq. 13.
func (s *Solver) before(z, zp qbf.Var) bool {
	return s.sd[z] <= s.sd[zp] && s.sf[zp] <= s.sf[z] && s.plevel[z] < s.plevel[zp]
}

// backtrack undoes all assignments above decision level target.
func (s *Solver) backtrack(target int) {
	if target >= s.level {
		return
	}
	s.unwindTrail(s.levelStart[target+1])
	s.levelStart = s.levelStart[:target+1]
	s.level = target
}

// unwindTrail pops trail entries down to (exclusive) position end, undoing
// every per-literal effect: the original clauses the popped literals
// satisfied return to the residual matrix, pure candidates are requeued,
// and the block bookkeeping is restored. It is the shared inner loop of
// backtrack and of the incremental frame operations, which unwind within
// level 0 (incremental.go).
func (s *Solver) unwindTrail(end int) {
	s.unsatisfyFrom(end)
	for i := len(s.trail) - 1; i >= end; i-- {
		l := s.trail[i]
		v := l.Var()
		if s.reason[v] == reasonPure {
			// The variable may still be pure at the outer level;
			// re-candidate it so fixPures reconsiders it.
			s.pureCand = append(s.pureCand, v)
		}
		s.value[v] = undef
		s.reason[v] = reasonNone
		s.reasonC[v] = -1
		b := s.blockOf[v]
		if s.blocks[b].unassigned == 0 {
			for _, dep := range s.blocks[b].dependents {
				s.blocks[dep].guardOpen++
			}
		}
		s.blocks[b].unassigned++
	}
	s.trail = s.trail[:end]
	if s.qhead > end {
		s.qhead = end
	}
}
