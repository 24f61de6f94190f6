package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/invariant"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// value of a literal on the trail (the entries of Solver.val).
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
	reasonAssumption            // root assumption of an incremental session (level 0)
)

// Constraints (clauses and cubes) live in the arena clause store (see
// arena.go): one flat []uint32 region, integer refs, the two watched
// literals at positions 0 and 1 of every constraint.

// blockInfo caches per-block structure derived from the prefix. A block's
// guards are its ancestors separated from it by at least one alternation,
// i.e. whose variables all ≺ ours. Along a root path the prefix level
// grows exactly at alternations, so the guards are the ancestors of
// strictly smaller level, and the blocks a block guards are the blocks of
// its subtree, the range [index+1, end) of Solver.blocks, with a greater
// level. Neither set is stored: that would take quadratic space on a deep
// alternating chain.
type blockInfo struct {
	quant      qbf.Quant
	level      int
	vars       []qbf.Var
	parent     int    // enclosing block in the quantifier tree; -1 for a root
	children   []int  // child blocks in the quantifier tree
	end        int    // one past the last block of this block's subtree
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
	// coverBase lists, in arena order, the construction-time original
	// clauses that have a literal which is not eReducible: the only ones
	// coverCube can take a literal from. coverRuntime is its counterpart
	// for the runtime originals, in runtimeOrig order.
	coverBase    []int32
	coverRuntime []int32

	// ar holds every constraint: originals first (their refs are stable,
	// the region [0, origEnd) never moves), then learned, compacted in
	// place as reduction rounds delete them.
	ar               arena
	origEnd          int // arena offset one past the last original clause
	nOriginalClauses int
	learnedClauses   int
	learnedCubes     int

	// occ: literal code → refs of the original clauses containing that
	// literal (satWalk's residual-matrix walk on every dequeued literal);
	// learned constraints are reached through the watcher lists instead.
	// Under Options.Incremental, clauses added at runtime join these lists
	// on AddClause and are cut off their ends again when their frame pops
	// (retractFrame) — satWalk does not test the deleted flag.
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

	// val is the value table, indexed by literal code: val[c] is vTrue,
	// vFalse or undef, and val[c^1] is its complement. assign and
	// unwindTrail write both entries of a variable together; nothing else
	// writes them.
	val      []int8
	dlevel   []int
	reason   []reasonKind
	reasonC  []int
	trailPos []int

	trail      []code
	qhead      int
	level      int
	levelStart []int // levelStart[k] = trail index where level k starts

	pureCand []uint32 // variables

	// Heuristic state (see heuristic.go).
	counter    []int // per literal: occurrences in active constraints
	score      []float64
	blockBonus []float64
	maxLit     []float64 // per block, rebuildBlockBonus's working array
	scoreTicks int
	scoreInc   float64

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
	// frame lives. units lists the unit constraints above origEnd — runtime
	// unit clauses and learned units — that solve asserts when it rebuilds
	// level 0 (assertRoot); deleted refs stay until compaction purges them.
	// runtimeOrig lists the live runtime-added original clauses (which sit
	// above origEnd, interleaved with learned constraints), so matrix-wide
	// walks like coverCube reach them without scanning the learned region.
	// opDirty is set by session operations and consumed by the next Solve,
	// which restarts the Luby schedule: the new query should explore from
	// short restart intervals again instead of inheriting an arbitrarily
	// long interval earned on a different formula. assumps holds the live
	// root assumptions in Assume order, so their depths are non-decreasing;
	// falseDepth is the frame depth the current False verdict was derived
	// at; modelGone marks the terminal assignment of a True verdict as
	// unwound by a session operation, so Witness has nothing to read.
	frames      []frame
	falseFrom   int
	units       []int
	runtimeOrig []int
	opDirty     bool
	assumps     []assumption
	falseDepth  int
	modelGone   bool

	ws       workSet // reusable analysis working set
	stampGen uint64  // last reduceSet generation; block stamps compare against it

	// dbgPrefix retains the finalized input prefix for the deep invariant
	// checker; nil unless built with -tags qbfdebug and CheckInvariants on.
	dbgPrefix *qbf.Prefix

	deadline     time.Time
	cancelCh     <-chan struct{} // context Done channel; nil when uncancellable
	learnedBytes int64           // estimated bytes held by live learned constraints
	learnHook    func(lits []qbf.Lit, isCube bool)

	// faultHook, when non-nil, fires at every propagation fixpoint with
	// the fixpoint ordinal; the qbfdebug fault-injection harness uses it
	// to force panics and cancellations at deterministic points. The
	// setter only compiles under -tags qbfdebug (fault_qbfdebug.go).
	faultHook func(fixpoint int64)
}

// code is the solver's literal: 2v (code(v)<<1) for the positive literal
// of variable v, 2v+1 for its negation. Everything inside the solver — the
// arena, the watcher blockers, the trail, the working sets — holds codes,
// so a literal's complement is c^1, its variable c>>1, per-literal arrays
// are indexed by the code itself and per-variable arrays by c>>1, with no
// sign to branch on. Variables start at 1, so the code 0 is no literal.
// qbf.Lit crosses into the solver through enc and out of it through
// code.lit, at the API (NewSolver, AddClause, Assume, Witness, the learn
// hook, telemetry payloads) and in cold code.
type code uint32

// enc is the code of l.
func enc(l qbf.Lit) code {
	if l < 0 {
		return code(-l)<<1 | 1
	}
	return code(l) << 1
}

// lit is the qbf.Lit c encodes.
func (c code) lit() qbf.Lit {
	l := qbf.LitOf(int(c >> 1))
	if c&1 != 0 {
		return l.Neg()
	}
	return l
}

// v is c's variable.
func (c code) v() uint32 { return uint32(c >> 1) }

// NewSolver prepares a solver for q. The input is not modified: free
// variables are bound existentially in a clone of the prefix, and the
// matrix is copied, normalized (tautologies dropped) and universally
// reduced (Lemma 3). In ModeTotalOrder the input prefix must be prenex, as
// for any classic prenex solver.
//
// Construction takes time linear in the size of q, apart from sorting
// each clause, and the number of allocations does not grow with the
// clause count (DESIGN.md §3.2). The errors come in a fixed order:
// an invalid literal, then a clause that is not scope-consistent, then (in
// ModeTotalOrder) a non-prenex prefix; a contradictory clause is not an
// error but a trivial False.
func NewSolver(q *qbf.QBF, opt Options) (*Solver, error) {
	// Normalize first (duplicate literals and tautologies are benign and
	// common in DIMACS files), then validate what normalization cannot
	// repair, then bind the remaining free variables.
	work := &qbf.QBF{Prefix: q.Prefix, Matrix: normalizedCopy(q.Matrix)}
	if err := work.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input: %w", err)
	}
	n := work.MaxVar()
	work.Prefix = q.Prefix.CloneBinding(work.FreeVars(), n)
	if _, err := work.ScopeConsistent(); err != nil {
		return nil, fmt.Errorf("core: input not scope-consistent: %w", err)
	}
	if opt.Mode == ModeTotalOrder && !work.Prefix.IsPrenex() {
		return nil, fmt.Errorf("core: total-order mode requires a prenex QBF; prenex the input first")
	}
	if opt.MaxLearned == 0 {
		opt.MaxLearned = 4000
	}

	s := &Solver{
		opt:       opt,
		nVars:     n,
		quant:     make([]qbf.Quant, n+1),
		sd:        make([]int, n+1),
		sf:        make([]int, n+1),
		plevel:    make([]int, n+1),
		blockOf:   make([]int, n+1),
		activeOcc: make([]int, 2*(n+1)),
		val:       make([]int8, 2*(n+1)),
		dlevel:    make([]int, n+1),
		reason:    make([]reasonKind, n+1),
		reasonC:   make([]int, n+1),
		trailPos:  make([]int, n+1),
		counter:   make([]int, 2*(n+1)),
		score:     make([]float64, 2*(n+1)),
		watchCu:   make([][]watcher, 2*(n+1)),
		trivial:   Unknown,
		falseFrom: -1,
	}

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
	s.maxLit = make([]float64, len(pblocks))
	for i, b := range pblocks {
		bi := blockInfo{
			quant:      b.Quant,
			level:      b.Level(),
			vars:       b.Vars, // p is the solver's own clone
			parent:     -1,
			unassigned: len(b.Vars),
		}
		if b.Parent() != nil {
			bi.parent = b.Parent().ID()
		}
		for _, c := range b.Children {
			bi.children = append(bi.children, c.ID())
		}
		bsd, bsf := b.Interval()
		bi.end = bsf // the subtree's ids run from ID() = bsd-1 to bsf-1
		s.blocks[i] = bi
		for _, v := range b.Vars {
			s.quant[v] = b.Quant
			s.sd[v] = bsd
			s.sf[v] = bsf
			s.plevel[v] = p.Level(v)
			s.blockOf[v] = i
		}
	}
	// Open guards, in one preorder pass: a block's guards are the blocks
	// on the root path down to its nearest guard, the nearest ancestor of
	// smaller level, so they hold nonEmpty[nearest] non-empty blocks, where
	// nonEmpty counts the non-empty blocks on a root path.
	nonEmpty := make([]int, len(s.blocks))
	nearest := make([]int, len(s.blocks))
	for i := range s.blocks {
		b := &s.blocks[i]
		nearest[i] = -1
		if pa := b.parent; pa >= 0 {
			nonEmpty[i] = nonEmpty[pa]
			nearest[i] = nearest[pa]
			if s.blocks[pa].level < b.level {
				nearest[i] = pa
			}
		}
		if b.unassigned > 0 {
			nonEmpty[i]++
		}
		if g := nearest[i]; g >= 0 {
			b.guardOpen = nonEmpty[g]
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
	// the solver's O(1) ≺ test to the structural Prefix.Before.
	s.attachInvariantPrefix(p)

	// Universal reduction in place, then installation. A contradictory
	// clause (Lemma 4, or the empty clause of Lemma 3) ends a one-shot
	// solver's construction with the clauses before it installed: the
	// formula is trivially false. Incremental solvers record it as a
	// base-frame falsity and finish construction instead: Pop can never
	// reach below the base, so the verdict is permanent, but the solver
	// must stay fully initialized for the session ops.
	s.levelStart = append(s.levelStart, 0)
	orig := work.Matrix[:0]
	for _, c := range work.Matrix {
		rc := s.reduceOriginal(c)
		if len(rc) == 0 {
			if opt.Incremental {
				s.falseFrom = 0
				continue
			}
			s.trivial = False
			break
		}
		orig = append(orig, rc)
	}
	s.installOriginals(orig)
	if s.trivial == False {
		return s, nil
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
	s.pureCand = make([]uint32, 0, n)
	for v := 1; v <= n; v++ {
		if s.blockOf[v] >= 0 {
			s.pureCand = append(s.pureCand, uint32(v))
		}
	}
	s.deepCheck()
	return s, nil
}

// normalizedCopy copies a matrix into one new slab, normalizing each clause
// in place there (Clause.Normalize) and dropping tautologies. Each clause
// of the copy is a 3-index slice of the slab.
func normalizedCopy(m []qbf.Clause) []qbf.Clause {
	total := 0
	for _, c := range m {
		total += len(c)
	}
	slab := make([]qbf.Lit, 0, total)
	out := make([]qbf.Clause, 0, len(m))
	for _, c := range m {
		start := len(slab)
		slab = append(slab, c...)
		nc, taut := qbf.Clause(slab[start:]).Normalize()
		if taut {
			slab = slab[:start]
			continue
		}
		slab = slab[:start+len(nc)]
		out = append(out, slab[start:len(slab):len(slab)])
	}
	return out
}

// reduceOriginal applies universal reduction (Lemma 3) to a
// scope-consistent clause in place, by the level rule: the clause's
// blocks lie on one root path, and along a path the prefix level grows
// exactly at alternations, so z ≺ z′ iff level(z) < level(z′). A universal
// literal therefore stays iff its level is below the clause's deepest
// existential level, and a clause without existentials reduces to empty.
func (s *Solver) reduceOriginal(c qbf.Clause) qbf.Clause {
	deepE := 0
	for _, l := range c {
		if v := l.Var(); s.quant[v] == qbf.Exists {
			deepE = max(deepE, s.plevel[v])
		}
	}
	out := c[:0]
	for _, l := range c {
		if v := l.Var(); s.quant[v] == qbf.Exists || s.plevel[v] < deepE {
			out = append(out, l)
		}
	}
	return out
}

// installOriginals installs the construction-time original clauses, in
// order. The arena, the occurrence lists, the clause watch lists and the
// cover list are sized from counts first, one slab per structure: each list
// is a 3-index slice of its slab, so a later append (a runtime clause, a
// moved watch) reallocates only that list.
func (s *Solver) installOriginals(cs []qbf.Clause) {
	words, longest := 0, 0
	for _, c := range cs {
		words += hdrWords + len(c)
		longest = max(longest, len(c))
		for _, l := range c {
			s.counter[enc(l)]++
		}
	}
	copy(s.activeOcc, s.counter)
	s.occ = carve[int32](s.counter)
	s.ar.d = make([]uint32, 0, words)
	watched := make([]int, len(s.counter))
	buf := make([]code, 0, longest)
	coverable := 0
	for _, c := range cs {
		buf = buf[:0]
		for _, l := range c {
			buf = append(buf, enc(l))
		}
		ci := s.ar.alloc(buf, false, false)
		if s.coverable(ci) {
			coverable++
		}
		s.placeWatches(ci)
		watched[s.ar.lit(ci, 0)^1]++
		if len(c) > 1 {
			watched[s.ar.lit(ci, 1)^1]++
		}
	}
	s.watchCl = carve[watcher](watched)
	s.coverBase = make([]int32, 0, coverable)
	for ci := 0; ci < s.ar.end(); ci = s.ar.next(ci) {
		for k := 0; k < s.ar.size(ci); k++ {
			li := s.ar.lit(ci, k)
			s.occ[li] = append(s.occ[li], int32(ci))
		}
		s.attachWatches(ci)
		if s.coverable(ci) {
			s.coverBase = append(s.coverBase, int32(ci))
		}
	}
	s.nOriginalClauses = len(cs)
}

// coverable reports whether the original clause ci has a literal that is
// not eReducible, i.e. whether coverCube can take a literal from it.
func (s *Solver) coverable(ci int) bool {
	for k, n := 0, s.ar.size(ci); k < n; k++ {
		if !s.eReducible[s.ar.lit(ci, k).v()] {
			return true
		}
	}
	return false
}

// carve returns one empty list per count, all cut from one slab: list k
// has capacity counts[k] (nil for 0), so filling it never writes into
// another list and an append past its count reallocates only list k.
func carve[T any](counts []int) [][]T {
	total := 0
	for _, c := range counts {
		total += c
	}
	slab := make([]T, total)
	lists := make([][]T, len(counts))
	off := 0
	for k, c := range counts {
		if c > 0 {
			lists[k] = slab[off : off : off+c]
			off += c
		}
	}
	return lists
}

// SetLearnHook installs a callback invoked with every learned constraint
// (clause or cube) as it is added. Test suites use it to audit the
// soundness of the learning machinery against the semantic oracle.
func (s *Solver) SetLearnHook(f func(lits []qbf.Lit, isCube bool)) { s.learnHook = f }

// SetNodeLimit replaces the decision budget (0 = unlimited) for subsequent
// Solve calls. Together with the resume property of Solve — the solver's
// state is preserved across an Unknown return, so re-entering continues
// the same search without repeating work — this lets a driver run a search
// in node-budget slices: solve to StopNodeLimit, raise the limit, solve
// again. Sessions budget each solve call this way.
func (s *Solver) SetNodeLimit(n int64) { s.opt.NodeLimit = n }

// Stats returns search statistics accumulated so far.
func (s *Solver) Stats() Stats { return s.stats }

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
	s.modelGone = false
	s.lastResult = s.solve()
	if s.lastResult == False {
		s.falseDepth = len(s.frames)
	}
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
	if !s.assertRoot() {
		// A root assumption is false once the units are asserted, and
		// every unit is a consequence of the formula: the formula is false
		// under the assumptions.
		return False
	}

	for {
		ev, ci := s.propagateAll()
		s.stats.Fixpoints++
		s.emitEv(telemetry.KindFixpoint, 0, int64(len(s.trail)), s.stats.Fixpoints)
		s.injectFault(s.stats.Fixpoints)
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
			if !s.handle(ci, qbf.Exists) {
				return False
			}
		case evSolution:
			s.stats.Solutions++
			s.emitConstraintEv(telemetry.KindSolution, ci)
			if !s.handle(ci, qbf.Forall) {
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
func (s *Solver) decide(l code) {
	s.level++
	if s.level > s.stats.MaxDecisionLevel {
		s.stats.MaxDecisionLevel = s.level
	}
	s.levelStart = append(s.levelStart, len(s.trail))
	s.assign(l, reasonDecision, -1)
	s.emitEv(telemetry.KindDecision, s.plevel[l.v()], int64(l.lit()), s.stats.Decisions)
}

// assign makes l true at the current decision level. It only records the
// assignment; the residual matrix and the watches are updated when the
// literal is dequeued by propagateAll.
func (s *Solver) assign(l code, why reasonKind, reasonCon int) {
	v := l.v()
	if s.val[l] != undef {
		invariant.Violated("core: double assignment of variable %d", v)
	}
	s.val[l], s.val[l^1] = vTrue, vFalse
	s.dlevel[v] = s.level
	s.reason[v] = why
	s.reasonC[v] = reasonCon
	s.trailPos[v] = len(s.trail)
	s.trail = append(s.trail, l)

	b := s.blockOf[v]
	s.blocks[b].unassigned--
	if s.blocks[b].unassigned == 0 {
		s.shiftGuardOpen(b, -1)
	}
}

// shiftGuardOpen adds delta to the open-guard count of every block that b
// guards: the blocks of b's subtree, a contiguous range of s.blocks, whose
// level is greater than b's.
func (s *Solver) shiftGuardOpen(b, delta int) {
	lv := s.blocks[b].level
	for d := b + 1; d < s.blocks[b].end; d++ {
		if s.blocks[d].level > lv {
			s.blocks[d].guardOpen += delta
		}
	}
}

// before is the O(1) ≺ test on variables: z's block is a structural
// ancestor of z”s with a strictly smaller prefix level. On alternating
// trees this is exactly the parenthesis-theorem test of Section VI, eq. 13.
func (s *Solver) before(z, zp uint32) bool {
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
// backtrack and of the session operations, which unwind level 0 too
// (beginOp, incremental.go).
func (s *Solver) unwindTrail(end int) {
	s.unsatisfyFrom(end)
	for i := len(s.trail) - 1; i >= end; i-- {
		l := s.trail[i]
		v := l.v()
		if s.reason[v] == reasonPure {
			// The variable may still be pure at the outer level;
			// re-candidate it so fixPures reconsiders it.
			s.pureCand = append(s.pureCand, v)
		}
		s.val[l], s.val[l^1] = undef, undef
		s.reason[v] = reasonNone
		s.reasonC[v] = -1
		b := s.blockOf[v]
		if s.blocks[b].unassigned == 0 {
			s.shiftGuardOpen(b, +1)
		}
		s.blocks[b].unassigned++
	}
	s.trail = s.trail[:end]
	if s.qhead > end {
		s.qhead = end
	}
}
