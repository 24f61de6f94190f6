// Package portfolio races diverse solver configurations on one QBF: the
// paper's own QUBE(TO)-vs-QUBE(PO) comparison shows per-instance runtime
// differences of orders of magnitude between configurations, which is
// exactly the variance a racing portfolio converts into speed. Workers run
// the same formula under different quantifier structures (tree partial
// order vs. prenex conversions), inference mixes (clause/cube learning,
// pure literals), heuristic seeds, and restart-free node-limit ladders;
// the first definitive True/False cancels the rest.
//
// Scheduling adapts to the hardware: with at least as many slots
// (MaxParallel) as workers, every worker races concurrently in a single
// unbounded slice. With fewer slots — the oversubscribed case, including
// MaxParallel=1 — workers are time-multiplexed in node-budget slices over
// the resumable solver (the resumable core Solve continues a stopped search, so
// slicing wastes no work), round-robin by (attempts, index). Worker 0 is
// the sequential default configuration, so on easy instances an
// oversubscribed portfolio costs the sequential runtime plus microseconds.
//
// Workers solving the identical (prefix, matrix) pair may exchange short
// learned constraints through lock-free rings; clause/term resolution
// guarantees every learned clause (cube) is a consequence of that exact
// formula, so imports preserve soundness. Workers on different quantifier
// structures never exchange (see DESIGN.md §8 for the argument).
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// Options controls a portfolio solve. Telemetry attaches through
// Base.Telemetry: each worker's solver gets a tracer forked with its
// worker index and structure group, so every event in a shared trace is
// attributable to one configuration and one sharing group.
type Options struct {
	// Workers is the schedule size when Schedule is nil (0 = 4).
	Workers int
	// Schedule overrides the generated DefaultSchedule.
	Schedule []WorkerConfig
	// Share enables constraint exchange between same-structure workers.
	Share bool
	// ShareMaxLen bounds exported constraint length (0 = 8 literals).
	ShareMaxLen int
	// RingCap is the per-worker inbox capacity (0 = 512).
	RingCap int
	// MaxParallel bounds concurrently running workers (0 = NumCPU).
	// Deterministic mode forces 1.
	MaxParallel int
	// Deterministic serializes the schedule (MaxParallel=1, fixed slice
	// order, ties broken toward the lowest worker index), making the
	// report reproducible modulo wall-clock fields. See DESIGN.md §8 for
	// the exact contract.
	Deterministic bool
	// SliceNodes is the base node quantum of a time-multiplexed slice and
	// the first rung of relaunch ladders (0 = 2048). Quanta double per
	// attempt; ladder rungs grow 4×.
	SliceNodes int64
	// Base carries the shared budgets and flags: TimeLimit (enforced as a
	// portfolio-wide deadline), NodeLimit (per-worker decision budget),
	// MemLimit (per worker), MaxLearned, CheckInvariants. Mode, learning
	// toggles and ScoreSeed come from each worker's own configuration.
	Base core.Options

	// testSolverHook, when non-nil, runs after each worker's solver is
	// constructed (worker index, attempt ordinal, solver). In-package
	// tests use it to install fault-injection hooks.
	testSolverHook func(i, attempt int, s *core.Solver)
}

// WorkerReport is one worker's contribution to a portfolio run.
type WorkerReport struct {
	Name    string
	Verdict core.Verdict
	// Stop explains an undecided worker (StopNone when it decided or was
	// never granted a slice — see Ran).
	Stop core.StopReason
	// Stats aggregates the worker's search effort across all attempts.
	Stats core.Stats
	// Attempts counts granted slices (resumable) or relaunches (ladder).
	Attempts int
	// Ran reports whether the worker was ever granted a slice.
	Ran bool
	// Err carries a contained construction error or solver panic.
	Err error
	// Exported counts constraints this worker offered to the exchange;
	// Imported/ImportsRejected mirror the solver's import counters.
	Exported int64
	Imported int64
	Rejected int64
}

// Result is the outcome of a portfolio solve.
type Result struct {
	Verdict core.Verdict
	// Stop explains an Unknown result (aggregated across workers: the
	// portfolio deadline and outer cancellation take precedence, then the
	// lowest-indexed worker's stop reason).
	Stop core.StopReason
	// Winner is the index of the deciding worker (-1 when undecided). When
	// several workers of one scheduling round decide, the lowest index
	// wins — with one slot (deterministic mode) rounds hold one slice, so
	// the tie-break never depends on goroutine timing.
	Winner  int
	Workers []WorkerReport
	// Witness is the winning solver's outermost existential assignment,
	// captured only when the winner solved the original (tree) structure
	// and the result is True; nil otherwise.
	Witness map[qbf.Var]bool
	// Stats sums search effort over every worker and attempt.
	Stats core.Stats
	// Exported/Dropped are exchange-wide publication totals.
	Exported int64
	Dropped  int64
	Time     time.Duration
}

// WinnerName returns the winning configuration's name, or "none".
func (r Result) WinnerName() string {
	if r.Winner < 0 || r.Winner >= len(r.Workers) {
		return "none"
	}
	return r.Workers[r.Winner].Name
}

// Err returns nil when the run produced a verdict or a clean governed
// stop, and the first worker error when every worker that ran failed —
// the condition under which a batch driver should count the instance as
// errored rather than out-of-budget.
func (r Result) Err() error {
	if r.Verdict != core.Unknown {
		return nil
	}
	var first error
	anyClean := false
	for _, w := range r.Workers {
		if !w.Ran {
			continue
		}
		if w.Err == nil {
			anyClean = true
		} else if first == nil {
			first = w.Err
		}
	}
	if anyClean {
		return nil
	}
	return first
}

// worker is the engine-side state of one schedule entry.
type worker struct {
	idx     int
	cfg     WorkerConfig
	group   int
	formula *qbf.QBF
	solver  *core.Solver
	opts    core.Options

	tracer *telemetry.Tracer

	attempts  int
	done      bool
	verdict   core.Verdict
	stop      core.StopReason
	err       error
	ran       bool
	agg       core.Stats // completed relaunch attempts (resumable workers accumulate in-solver)
	exported  int64
	witness   map[qbf.Var]bool
	seen      map[string]struct{}
	lastStats core.Stats
}

const (
	defaultWorkers    = 4
	defaultSliceNodes = 2048
	maxSliceNodes     = 1 << 18
	maxRungNodes      = 1 << 30
	importBatch       = 64
)

// Solve races the configured portfolio on q under ctx and returns the
// merged result. The only error return is a configuration or input error;
// per-worker failures are contained in the result's worker reports.
func Solve(ctx context.Context, q *qbf.QBF, opts Options) (Result, error) {
	cfg := opts
	start := time.Now()
	if q == nil {
		return Result{}, errors.New("portfolio: nil formula")
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow L8 nil-context normalization at the API edge
	}
	schedule := cfg.Schedule
	if schedule == nil {
		n := cfg.Workers
		if n <= 0 {
			n = defaultWorkers
		}
		schedule = DefaultSchedule(q, n)
	}
	if len(schedule) == 0 {
		return Result{}, errors.New("portfolio: empty schedule")
	}
	for i, w := range schedule {
		if w.Options.Mode == core.ModeTotalOrder && !w.Prenexed && !q.Prefix.IsPrenex() {
			return Result{}, fmt.Errorf("portfolio: worker %d (%s): total-order mode on a non-prenex input requires Prenexed", i, w.Name)
		}
	}

	slice := cfg.SliceNodes
	if slice <= 0 {
		slice = defaultSliceNodes
	}
	slots := cfg.MaxParallel
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	if cfg.Deterministic {
		slots = 1
	}
	if slots > len(schedule) {
		slots = len(schedule)
	}
	sliced := slots < len(schedule)

	// Structure groups for sound sharing.
	groupIDs := map[string]int{}
	groups := make([]int, len(schedule))
	prenexInput := q.Prefix.IsPrenex()
	for i, wc := range schedule {
		key := wc.groupKey()
		if prenexInput {
			key = "tree"
		}
		id, ok := groupIDs[key]
		if !ok {
			id = len(groupIDs)
			groupIDs[key] = id
		}
		groups[i] = id
	}
	var exch *Exchange
	if cfg.Share {
		exch = NewExchange(groups, cfg.RingCap, cfg.ShareMaxLen)
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.Base.TimeLimit > 0 {
		var cancelT context.CancelFunc
		ctx2, cancelT = context.WithTimeout(ctx2, cfg.Base.TimeLimit)
		defer cancelT()
	}

	workers := make([]*worker, len(schedule))
	for i, wc := range schedule {
		workers[i] = &worker{idx: i, cfg: wc, group: groups[i], seen: map[string]struct{}{}}
	}

	eng := &engine{cfg: cfg, q: q, exch: exch, slice: slice, sliced: sliced, cancel: cancel}

	winner := -1
	for ctx2.Err() == nil {
		batch := eng.pickBatch(workers, slots)
		if len(batch) == 0 {
			break
		}
		var wg sync.WaitGroup
		for _, w := range batch {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						// runSlice is already panic-contained via SafeSolve;
						// this guards engine bookkeeping itself.
						w.done, w.err = true, fmt.Errorf("portfolio: worker %d harness panic: %v", w.idx, p)
						w.stop = core.StopPanicked
					}
				}()
				eng.runSlice(ctx2, w)
			}(w)
		}
		wg.Wait()
		for _, w := range batch { // index order within the round
			if w.done && w.err == nil && w.verdict != core.Unknown && (winner < 0 || w.idx < winner) {
				winner = w.idx
			}
		}
		if winner >= 0 {
			cancel()
			break
		}
	}

	rep := Result{Winner: winner, Workers: make([]WorkerReport, len(workers)), Time: time.Since(start)}
	for i, w := range workers {
		st := w.currentStats()
		wr := WorkerReport{
			Name: w.cfg.Name, Verdict: w.verdict, Stop: w.stop, Stats: st,
			Attempts: w.attempts, Ran: w.ran, Err: w.err,
			Exported: w.exported, Imported: st.Imports, Rejected: st.ImportsRejected,
		}
		rep.Workers[i] = wr
		mergeStats(&rep.Stats, st)
	}
	if exch != nil {
		rep.Exported, rep.Dropped = exch.Totals()
	}
	if winner >= 0 {
		rep.Verdict = workers[winner].verdict
		rep.Stop = core.StopNone
		rep.Witness = workers[winner].witness
	} else {
		rep.Verdict = core.Unknown
		rep.Stop = aggregateStop(ctx, ctx2, workers)
	}
	rep.Stats.StopReason = rep.Stop
	return rep, nil
}

// engine carries the per-run scheduling state shared by slices.
type engine struct {
	cfg    Options
	q      *qbf.QBF
	exch   *Exchange
	slice  int64
	sliced bool
	cancel context.CancelFunc
}

// pickBatch selects up to n live workers, round-robin by (attempts, index).
func (e *engine) pickBatch(workers []*worker, n int) []*worker {
	var live []*worker
	for _, w := range workers {
		if !w.done {
			live = append(live, w)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].attempts != live[j].attempts {
			return live[i].attempts < live[j].attempts
		}
		return live[i].idx < live[j].idx
	})
	if len(live) > n {
		live = live[:n]
	}
	return live
}

// build constructs (or, for relaunch ladders, reconstructs) the worker's
// solver and installs the exchange hooks. Construction is lazy so that an
// oversubscribed portfolio only pays for configurations it actually runs.
func (e *engine) build(w *worker) error {
	if w.formula == nil {
		if w.cfg.Prenexed && !e.q.Prefix.IsPrenex() {
			w.formula = prenex.Apply(e.q, w.cfg.Strategy)
		} else {
			w.formula = e.q
		}
	}
	opts := w.cfg.Options
	opts.TimeLimit = 0 // the portfolio deadline governs
	opts.NodeLimit = 0 // set per slice
	opts.MemLimit = e.cfg.Base.MemLimit
	opts.MaxLearned = e.cfg.Base.MaxLearned
	opts.CheckInvariants = e.cfg.Base.CheckInvariants
	w.tracer = e.cfg.Base.Telemetry.Fork(w.idx, w.group)
	opts.Telemetry = w.tracer
	s, err := core.NewSolver(w.formula, opts)
	if err != nil {
		return err
	}
	w.solver, w.opts = s, opts
	if e.exch != nil {
		idx := w.idx
		s.SetLearnHook(func(lits []qbf.Lit, isCube bool) {
			w.exported++
			e.exch.Publish(idx, []core.Shared{{Lits: lits, IsCube: isCube}})
		})
		s.SetImportHook(func() []core.Shared {
			batch := e.exch.Collect(idx, importBatch)
			if len(batch) == 0 {
				return nil
			}
			fresh := batch[:0]
			for _, sc := range batch {
				k := shareKey(sc)
				if _, dup := w.seen[k]; dup {
					continue
				}
				w.seen[k] = struct{}{}
				fresh = append(fresh, sc)
			}
			return fresh
		})
	}
	if e.cfg.testSolverHook != nil {
		e.cfg.testSolverHook(w.idx, w.attempts, s)
	}
	return nil
}

// runSlice grants the worker one scheduling slice: a bounded resume (or
// ladder relaunch) in sliced mode, a full solve otherwise. All solver
// panics are contained by SafeSolve; a decided worker cancels the
// portfolio context so racing siblings stop at their next fixpoint.
func (e *engine) runSlice(ctx context.Context, w *worker) {
	if w.solver == nil || w.cfg.Relaunch {
		if w.solver != nil {
			// Ladder relaunch: bank the finished attempt's effort.
			mergeStats(&w.agg, w.solver.Stats())
		}
		if err := e.build(w); err != nil {
			w.done, w.err = true, err
			return
		}
	}
	w.ran = true
	budget := e.cfg.Base.NodeLimit
	spent := w.agg.Decisions + w.solver.Stats().Decisions
	var limit int64
	switch {
	case w.cfg.Relaunch:
		// Ladder rungs grow 4× per attempt without the slice ceiling:
		// a capped rung could never finish a search larger than the cap.
		rung := e.slice << uint(2*min64(int64(w.attempts), 12))
		if rung <= 0 || rung > maxRungNodes {
			rung = maxRungNodes
		}
		limit = w.solver.Stats().Decisions + rung
	case e.sliced:
		quantum := capNodes(e.slice << uint(min64(int64(w.attempts), 16)))
		limit = w.solver.Stats().Decisions + quantum
	default:
		limit = 0
	}
	if budget > 0 {
		remaining := budget - spent
		if remaining <= 0 {
			w.done, w.stop = true, core.StopNodeLimit
			return
		}
		if limit == 0 || limit > w.solver.Stats().Decisions+remaining {
			limit = w.solver.Stats().Decisions + remaining
		}
	}
	w.solver.SetNodeLimit(limit)
	w.tracer.Emit(telemetry.KindSlice, 0, 0, int64(w.attempts), limit)
	r, err := w.solver.SafeSolve(ctx)
	w.attempts++
	w.lastStats = w.solver.Stats()
	if err != nil {
		w.done, w.err, w.stop = true, err, core.StopPanicked
		return
	}
	if r != core.Unknown {
		w.done, w.verdict, w.stop = true, r, core.StopNone
		if r == core.True && !w.cfg.Prenexed {
			w.witness, _ = w.solver.Witness()
		}
		e.cancel()
		return
	}
	switch stop := w.lastStats.StopReason; stop {
	case core.StopNodeLimit:
		total := w.agg.Decisions + w.lastStats.Decisions
		if budget > 0 && total >= budget {
			w.done, w.stop = true, core.StopNodeLimit
		}
		// Otherwise the worker stays live for its next slice or rung.
	default:
		// Timeout, cancellation, memory stop, or a clean stop the engine
		// cannot continue from.
		w.done, w.stop = true, stop
	}
}

// currentStats returns the worker's aggregated effort: banked relaunch
// attempts plus the live solver's counters.
func (w *worker) currentStats() core.Stats {
	st := w.agg
	if w.solver != nil {
		mergeStats(&st, w.solver.Stats())
	} else {
		st = w.lastStats
	}
	return st
}

// aggregateStop explains an undecided portfolio: the portfolio deadline
// (Base.TimeLimit lives on the derived context) and outer cancellation
// dominate, then the lowest-indexed ran worker's reason.
func aggregateStop(outer, derived context.Context, workers []*worker) core.StopReason {
	if derived.Err() == context.DeadlineExceeded {
		return core.StopTimeout
	}
	if outer.Err() != nil {
		return core.StopCancelled
	}
	for _, w := range workers {
		if w.ran && w.stop != core.StopNone {
			return w.stop
		}
	}
	return core.StopCancelled
}

// mergeStats accumulates src into dst (sums, with maxima where a sum is
// meaningless; see result.Stats.Merge). StopReason is left to the caller.
func mergeStats(dst *core.Stats, src core.Stats) { dst.Merge(src) }

// shareKey canonicalizes a shared constraint for per-worker deduplication.
func shareKey(sc core.Shared) string {
	lits := append([]qbf.Lit(nil), sc.Lits...)
	sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
	var sb strings.Builder
	if sc.IsCube {
		sb.WriteByte('c')
	} else {
		sb.WriteByte('n')
	}
	for _, l := range lits {
		fmt.Fprintf(&sb, " %d", l)
	}
	return sb.String()
}

func capNodes(n int64) int64 {
	if n <= 0 || n > maxSliceNodes {
		return maxSliceNodes
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
