// Package server is the solve service: an HTTP/JSON daemon that keeps a
// long-lived solver process alive and well-behaved under a stream of
// requests. It wraps the engine's existing robustness primitives —
// per-request budgets with StopReasons, SafeSolve panic containment, and
// the ctx-first Solve API — in a service-level envelope:
//
//   - admission control: a bounded work queue with per-request queue
//     deadlines; when the queue is full the server sheds load with 429 +
//     Retry-After instead of accepting unbounded goroutines;
//   - per-request governance: request-supplied time/node/memory budgets
//     clamped by server-wide caps, with result.StopReason mapped to HTTP
//     statuses exactly as the CLIs map it to exit codes 10/20/30–34;
//   - fault containment: a worker that catches a contained panic reports
//     it, records a quarantine strike against the offending solver
//     configuration, and trips that configuration's circuit breaker so a
//     poison request cannot crash-loop the pool;
//   - graceful drain: Drain stops admissions, lets in-flight solves
//     finish inside the caller's deadline, then cancels them via context;
//     /healthz (liveness) stays green while /readyz flips not-ready the
//     moment draining starts.
//
// See DESIGN.md §10 for the architecture and the breaker state machine.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/result"
	"repro/internal/telemetry"
)

// ShedReason names why a request was rejected before solving. The
// numbering is carried in KindShed telemetry events (Event.A).
type ShedReason int

const (
	// ShedQueueFull: the admission queue was at capacity (429).
	ShedQueueFull ShedReason = iota
	// ShedDraining: the server is draining; new work is refused (503).
	ShedDraining
	// ShedBreakerOpen: the circuit breaker for the request's solver
	// configuration is open after repeated contained panics (503).
	ShedBreakerOpen
	// ShedQueueDeadline: the request waited in the queue longer than the
	// configured queue timeout and was dropped unsolved (503).
	ShedQueueDeadline
	// ShedSessionsFull: the sticky-session store was at capacity with every
	// session mid-solve, so none could be evicted (429).
	ShedSessionsFull
)

func (r ShedReason) String() string {
	switch r {
	case ShedQueueFull:
		return "queue-full"
	case ShedDraining:
		return "draining"
	case ShedBreakerOpen:
		return "breaker-open"
	case ShedQueueDeadline:
		return "queue-deadline"
	case ShedSessionsFull:
		return "sessions-full"
	default:
		return "unknown"
	}
}

// numShedReasons sizes the per-reason counters; keep in sync with the
// constants above.
const numShedReasons = 5

// Config tunes a Server. The zero value serves with safe defaults:
// NumCPU workers, a 64-deep queue, a 2 s queue deadline, an 8 MiB body
// cap, and no budget caps.
type Config struct {
	// Workers is the solver pool size (0 = NumCPU).
	Workers int
	// QueueDepth bounds the admission queue (0 = 64). Requests beyond
	// Workers+QueueDepth are shed with 429.
	QueueDepth int
	// QueueTimeout is the longest a request may wait for a worker before
	// being shed with 503 (0 = 2s).
	QueueTimeout time.Duration
	// MaxBody caps the request body in bytes (0 = 8 MiB).
	MaxBody int64
	// Caps are the server-wide ceilings clamping request budgets.
	Caps Caps
	// RetryAfter is the hint sent with 429/503 responses (0 = 1s).
	RetryAfter time.Duration
	// Breaker tunes the per-configuration circuit breakers.
	Breaker BreakerConfig
	// MaxSessions caps the sticky-session store (0 = 64). Opening a
	// session beyond the cap evicts the least-recently-used idle session;
	// when every session is mid-solve the open sheds with 429.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (0 = 5 min).
	SessionTTL time.Duration
	// Tracer, when non-nil, receives admit/shed/serve events (and is
	// handed to every solver, so request traces carry search events too).
	Tracer *telemetry.Tracer

	// JournalDir, when non-empty, makes sessions crash-tolerant: every
	// accepted session op is journaled to a write-ahead log in this
	// directory before execution, and on construction the server replays
	// the log, rebuilding the sessions a crash destroyed (DESIGN.md §13).
	// A journal that cannot be opened or written flips the store into
	// visible degraded non-durable mode instead of shedding traffic.
	JournalDir string
	// JournalFsync is the durability policy: "always", "interval"
	// (default), or "never" (journal.ParsePolicy).
	JournalFsync string
	// JournalFsyncInterval is the background flush period under the
	// "interval" policy (0 = 50ms).
	JournalFsyncInterval time.Duration
	// JournalSegmentBytes is the segment rotation threshold (0 = 4 MiB).
	JournalSegmentBytes int64
	// JournalCompactEvery is the append count between snapshot-compaction
	// attempts (0 = 1024).
	JournalCompactEvery int64
	// JournalOnAppend, when non-nil, runs after every durable journal
	// append with the lifetime count. Chaos tests use it to kill the
	// process at an exact journal position.
	JournalOnAppend func(total int64)

	// testSolverHook, when non-nil, runs after each one-shot solver is
	// constructed, before solving. In-package chaos tests use it to
	// install qbfdebug fault-injection hooks keyed on the request.
	testSolverHook func(spec *solveSpec, s *core.Solver)
}

// DefaultWorkers is the pool size used when Config.Workers is zero.
func DefaultWorkers() int { return runtime.NumCPU() }

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	return c
}

// job is one admitted request travelling from the handler to a worker.
type job struct {
	spec *solveSpec
	//lint:allow L10 request-scoped carrier: the job moves the request ctx across the queue to its worker
	ctx  context.Context // the request's context (client disconnect)
	tk   ticket          // breaker admission to resolve
	br   *breaker
	enq  time.Time
	done chan jobResult // buffered(1): the worker never blocks on it
}

type jobResult struct {
	status int
	resp   SolveResponse
}

// Server is the solve service. Construct with New, mount Handler on an
// http.Server, and call Drain on shutdown.
type Server struct {
	cfg   Config
	queue chan *job

	draining atomic.Bool
	// pending counts requests between admission and response; Drain polls
	// it to zero. Incremented before the draining check so the two cannot
	// race (see Drain).
	pending atomic.Int64
	active  atomic.Int64 // requests currently inside a solver

	// solveCtx is cancelled when the drain deadline forces in-flight
	// solves to stop; every solve context is derived from the request
	// context AND this one.
	//lint:allow L10 server-owned lifecycle root: Drain cancels it to force in-flight solves to stop
	solveCtx    context.Context
	forceCancel context.CancelFunc

	stopWorkers chan struct{}
	stopOnce    sync.Once
	workers     sync.WaitGroup

	mu         sync.Mutex
	breakers   map[string]*breaker
	quarantine map[string]int64 // config key → contained panics

	sessions *sessionStore

	admitted  atomic.Int64
	completed atomic.Int64
	panics    atomic.Int64
	shed      [numShedReasons]atomic.Int64
}

// New builds a Server and starts its worker pool. The returned server is
// immediately ready; stop it with Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		queue:       make(chan *job, cfg.QueueDepth),
		stopWorkers: make(chan struct{}),
		breakers:    map[string]*breaker{},
		quarantine:  map[string]int64{},
	}
	// The server owns its workers' lifecycle: this is the API edge where
	// the root context is created, not a library call site reaching for a
	// context it should have been handed.
	s.solveCtx, s.forceCancel = context.WithCancel(context.Background()) //lint:allow L8 server-owned lifecycle root
	s.sessions = newSessionStore(cfg, s)
	if cfg.JournalDir != "" {
		s.openJournal(cfg)
	}
	s.workers.Add(cfg.Workers + 1)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.sessionReaper()
	return s
}

// openJournal opens (or creates) the session write-ahead log and replays
// it through the recovery manager. Called from New before any worker
// starts, so recovery sees a quiescent store. A journal that cannot be
// opened — bad policy string, unusable directory, unreadable segments —
// does not stop the server: the store comes up in visible degraded
// non-durable mode and serves traffic from memory.
func (s *Server) openJournal(cfg Config) {
	js := &journalState{tracer: cfg.Tracer, compactEvery: cfg.JournalCompactEvery}
	if js.compactEvery <= 0 {
		js.compactEvery = 1024
	}
	s.sessions.jr = js
	pol, err := journal.ParsePolicy(cfg.JournalFsync)
	if err != nil {
		js.degrade()
		return
	}
	j, recs, err := journal.Open(journal.Options{
		Dir:           cfg.JournalDir,
		Fsync:         pol,
		FsyncInterval: cfg.JournalFsyncInterval,
		SegmentBytes:  cfg.JournalSegmentBytes,
		OnAppend:      cfg.JournalOnAppend,
	})
	if err != nil {
		js.degrade()
		return
	}
	js.j = j
	if dropped := j.Stats().TruncatedBytes; dropped > 0 {
		s.emitJournal(4, dropped)
	}
	s.sessions.recover(recs)
}

func (s *Server) emitJournal(event, detail int64) {
	s.cfg.Tracer.Emit(telemetry.KindJournal, 0, 0, event, detail)
}

// sessionReaper expires idle sessions on a fraction of the TTL until the
// server shuts down.
func (s *Server) sessionReaper() {
	defer s.workers.Done()
	period := s.cfg.SessionTTL / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stopWorkers:
			return
		case now := <-tick.C:
			s.sessions.reap(now)
			s.sessions.maybeCompact()
		}
	}
}

// Handler returns the service mux:
//
//	POST /solve    decode → admit → queue → solve → respond
//	               (also mounted as /v1/solve, the versioned path the
//	               qbfgate front tier proxies)
//	GET  /healthz  liveness: 200 while the process serves at all
//	GET  /readyz   readiness: 200, flipping to 503 at drain start
//	GET  /statusz  JSON counters, breaker states, quarantine ledger
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.gated(s.handleSolve))
	mux.HandleFunc("/v1/solve", s.gated(s.handleSolve))
	mux.HandleFunc("/v1/session", s.gated(s.sessions.handleCreate))
	mux.HandleFunc("/v1/session/", s.gated(s.sessions.handleSession))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n") //nolint:errcheck // probe body is best-effort
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(result.StatusUnavailable)
			io.WriteString(w, "draining\n") //nolint:errcheck // probe body is best-effort
			return
		}
		w.WriteHeader(http.StatusOK)
		if s.sessions.jr.isDegraded() {
			// Still 200 — a failed journal disk must not knock the node
			// out of rotation — but the body carries the durability loss
			// for operators and probes that read it.
			io.WriteString(w, "ready degraded:non-durable\n") //nolint:errcheck // probe body is best-effort
			return
		}
		io.WriteString(w, "ready\n") //nolint:errcheck // probe body is best-effort
	})
	mux.HandleFunc("/statusz", s.handleStatus)
	return mux
}

// gated wraps a handler with the admission envelope every solve and
// session route shares: the request is counted against Drain's pending
// gauge before the drain flag is checked, and sheds with 503 once
// draining has begun. The order matters: Drain sets the flag and then
// waits for pending to reach zero, so any request that slipped past the
// flag is still counted (and any counted after the flag is set
// immediately sheds and uncounts).
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.pending.Add(1)
		defer s.pending.Add(-1)
		if s.draining.Load() {
			s.writeShed(w, ShedDraining, result.StatusUnavailable)
			return
		}
		h(w, r)
	}
}

// readBody reads the request body under the configured size cap, writing
// the rejection itself and reporting false when the body is unusable.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		writeJSON(w, result.StatusBadRequest, SolveResponse{Error: "reading body: " + err.Error()})
		return nil, false
	}
	if int64(len(body)) > s.cfg.MaxBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, SolveResponse{
			Error: "body exceeds " + strconv.FormatInt(s.cfg.MaxBody, 10) + " bytes"})
		return nil, false
	}
	return body, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, SolveResponse{Error: "POST a SolveRequest to /solve"})
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := ParseSolveRequest(body)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, SolveResponse{Error: err.Error()})
		return
	}
	spec, err := buildSpec(req, s.cfg.Caps)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, SolveResponse{Error: err.Error()})
		return
	}
	spec.opt.Telemetry = s.cfg.Tracer

	br := s.breakerFor(spec.key)
	tk, ok := br.Admit()
	if !ok {
		s.writeShed(w, ShedBreakerOpen, result.StatusUnavailable)
		return
	}

	j := &job{spec: spec, ctx: r.Context(), tk: tk, br: br, enq: time.Now(), done: make(chan jobResult, 1)}
	select {
	case s.queue <- j:
		s.admitted.Add(1)
		s.emit(telemetry.KindAdmit, int64(len(s.queue)), s.active.Load())
	default:
		br.Cancel(tk)
		s.writeShed(w, ShedQueueFull, result.StatusTooManyRequests)
		return
	}

	select {
	case res := <-j.done:
		writeJSON(w, res.status, res.resp)
	case <-r.Context().Done():
		// The client is gone; the worker will observe the dead context
		// and discard the job. There is nobody left to respond to.
	}
}

// writeShed emits the shed telemetry event, bumps the counter, and writes
// the rejection with a Retry-After hint (all shed statuses are retryable).
func (s *Server) writeShed(w http.ResponseWriter, reason ShedReason, status int) {
	s.shed[reason].Add(1)
	s.emit(telemetry.KindShed, int64(reason), int64(len(s.queue)))
	w.Header().Set("Retry-After", strconv.FormatInt(int64(s.cfg.RetryAfter/time.Second)+1, 10))
	writeJSON(w, status, SolveResponse{Shed: reason.String(), Error: "load shed: " + reason.String()})
}

func writeJSON(w http.ResponseWriter, status int, resp SolveResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(resp) //nolint:errcheck // the client may have gone away; nothing to do
}

// worker is one solver goroutine: it pops admitted jobs and runs them
// until the server shuts down.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stopWorkers:
			return
		case j := <-s.queue:
			s.serveJob(j)
		}
	}
}

// serveJob runs one admitted job end to end: queue-deadline and drain
// checks, the contained solve, breaker/quarantine bookkeeping, and the
// response. It must never panic — a worker death would shrink the pool
// forever — so the solve itself goes through SafeSolve and everything
// else is straight-line code.
func (s *Server) serveJob(j *job) {
	queued := time.Since(j.enq)
	switch {
	case j.ctx.Err() != nil:
		// The client disconnected while the job sat in the queue; nobody
		// is waiting on done (the handler returned), so just release the
		// breaker admission.
		j.br.Cancel(j.tk)
		return
	case s.draining.Load():
		j.br.Cancel(j.tk)
		s.shed[ShedDraining].Add(1)
		s.emit(telemetry.KindShed, int64(ShedDraining), int64(len(s.queue)))
		j.done <- s.shedResult(ShedDraining)
		return
	case queued > s.cfg.QueueTimeout:
		j.br.Cancel(j.tk)
		s.shed[ShedQueueDeadline].Add(1)
		s.emit(telemetry.KindShed, int64(ShedQueueDeadline), int64(len(s.queue)))
		j.done <- s.shedResult(ShedQueueDeadline)
		return
	}

	// The solve context merges the request context (client disconnect)
	// with the server's force-cancel root (drain deadline). Budgets ride
	// in Options; the solver polls both at every propagation fixpoint.
	ctx, cancel := s.mergeCtx(j.ctx)
	s.active.Add(1)
	start := time.Now()
	res := s.solve(ctx, j.spec)
	elapsed := time.Since(start)
	s.active.Add(-1)
	cancel()

	ok := res.status != result.StatusInternalError
	j.br.Done(j.tk, ok)
	if !ok {
		s.panics.Add(1)
		s.mu.Lock()
		s.quarantine[j.spec.key]++
		s.mu.Unlock()
	}
	s.completed.Add(1)
	res.resp.QueueMS = queued.Milliseconds()
	res.resp.SolveMS = elapsed.Milliseconds()
	s.emit(telemetry.KindServe, verdictCode(res.resp.Verdict), int64(statusStop(res.resp.Stop)))
	j.done <- res
}

// solve runs the spec under full containment and maps the outcome to its
// HTTP status.
func (s *Server) solve(ctx context.Context, spec *solveSpec) jobResult {
	solver, err := core.NewSolver(spec.q, spec.opt)
	if err != nil {
		// buildSpec validated the formula, so a construction failure is a
		// server-side defect, not a bad request.
		return jobResult{status: result.StatusInternalError,
			resp: SolveResponse{Verdict: result.Unknown.String(), Error: err.Error()}}
	}
	if s.cfg.testSolverHook != nil {
		s.cfg.testSolverHook(spec, solver)
	}
	v, err := solver.SafeSolve(ctx)
	st := solver.Stats()
	if err != nil {
		return jobResult{status: result.StatusInternalError,
			resp: solveResponse(result.Unknown, result.StopPanicked, st, nil, err)}
	}
	var wit []int
	if spec.witness && v == core.True {
		if model, has := solver.Witness(); has {
			wit = witnessInts(model, spec.q.MaxVar())
		}
	}
	return jobResult{status: result.HTTPStatus(v, st.StopReason),
		resp: solveResponse(v, st.StopReason, st, wit, nil)}
}

// mergeCtx derives a context cancelled by either the request context
// (client disconnect) or the server's force-cancel root (drain deadline).
// The returned CancelFunc releases both hooks and must always be called.
func (s *Server) mergeCtx(req context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(req)
	stop := context.AfterFunc(s.solveCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

func (s *Server) shedResult(reason ShedReason) jobResult {
	return jobResult{
		status: result.StatusUnavailable,
		resp:   SolveResponse{Shed: reason.String(), Error: "load shed: " + reason.String()},
	}
}

func (s *Server) breakerFor(key string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		b = newBreaker(s.cfg.Breaker)
		s.breakers[key] = b
	}
	return b
}

func (s *Server) emit(k telemetry.Kind, a, b int64) {
	s.cfg.Tracer.Emit(k, 0, 0, a, b)
}

// ErrDrainForced reports that Drain's deadline expired with solves still
// in flight: they were force-cancelled (each completing with a
// StopCancelled response) rather than allowed to finish. The
// conventional process exit code for this outcome is 130.
var ErrDrainForced = drainForcedError{}

type drainForcedError struct{}

func (drainForcedError) Error() string {
	return "server: drain deadline exceeded; in-flight solves were cancelled"
}

// Drain shuts the server down gracefully: admissions stop immediately
// (/readyz flips to 503, new /solve requests shed with 503, queued jobs
// shed with 503), in-flight solves run to completion, and when ctx
// expires first the remaining solves are cancelled via context — they
// observe the cancellation at their next propagation fixpoint and
// respond 503/cancelled. Drain returns nil on a clean drain and
// ErrDrainForced when the deadline forced cancellation. It always waits
// for every pending request to receive its response and for every worker
// to exit before returning.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	forced := false
	// The poll waits on a ticker, not a bare sleep, so the deadline that
	// forces cancellation is observed the moment it fires (L14).
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.pending.Load() > 0 {
		if !forced {
			select {
			case <-ctx.Done():
				forced = true
				s.forceCancel()
			case <-tick.C:
			}
			continue
		}
		<-tick.C
	}
	// Sticky sessions are torn down after the last pending request has
	// been answered: a session op that slipped past the drain flag holds
	// its session lock until it responds, and closeAll takes each lock,
	// so teardown cannot race an in-flight session solve.
	s.sessions.closeAll()
	s.sessions.jr.close()
	s.stopOnce.Do(func() { close(s.stopWorkers) })
	s.workers.Wait()
	if forced {
		return ErrDrainForced
	}
	return nil
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	Admitted  int64                   `json:"admitted"`
	Completed int64                   `json:"completed"`
	Panics    int64                   `json:"panics"`
	Shed      map[string]int64        `json:"shed"`
	Breakers  map[string]BreakerStats `json:"breakers"`
	// Quarantined lists solver configurations with at least one contained
	// panic on record, sorted.
	Quarantined []string     `json:"quarantined"`
	InFlight    int64        `json:"in_flight"`
	QueueDepth  int64        `json:"queue_depth"`
	Draining    bool         `json:"draining"`
	Sessions    SessionStats `json:"sessions"`
	Journal     JournalStats `json:"journal"`
}

// SessionStats reports the sticky-session store.
type SessionStats struct {
	Live    int64 `json:"live"`
	Created int64 `json:"created"`
	Closed  int64 `json:"closed"`
	Expired int64 `json:"expired"`
	Evicted int64 `json:"evicted"`
}

// BreakerStats reports one configuration's breaker.
type BreakerStats struct {
	State  string `json:"state"`
	Trips  int64  `json:"trips"`
	Panics int64  `json:"panics"`
}

// Snapshot collects the service counters (the /statusz payload).
func (s *Server) Snapshot() Stats {
	st := Stats{
		Admitted:   s.admitted.Load(),
		Completed:  s.completed.Load(),
		Panics:     s.panics.Load(),
		Shed:       map[string]int64{},
		Breakers:   map[string]BreakerStats{},
		InFlight:   s.active.Load(),
		QueueDepth: int64(len(s.queue)),
		Draining:   s.draining.Load(),
		Sessions:   s.sessions.snapshot(),
		Journal:    s.sessions.jr.snapshot(),
	}
	for r := 0; r < numShedReasons; r++ {
		st.Shed[ShedReason(r).String()] = s.shed[r].Load()
	}
	s.mu.Lock()
	for key, b := range s.breakers {
		st.Breakers[key] = BreakerStats{State: b.State().String(), Trips: b.Trips(), Panics: s.quarantine[key]}
	}
	for key, n := range s.quarantine {
		if n > 0 {
			st.Quarantined = append(st.Quarantined, key)
		}
	}
	s.mu.Unlock()
	sort.Strings(st.Quarantined)
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot()) //nolint:errcheck // the client may have gone away
}

// verdictCode maps a verdict string back to its numeric code for the
// KindServe event payload (Unknown when the string is empty or foreign).
func verdictCode(v string) int64 {
	switch v {
	case result.True.String():
		return int64(result.True)
	case result.False.String():
		return int64(result.False)
	default:
		return int64(result.Unknown)
	}
}

// statusStop is the inverse of StopReason.String for the KindServe event.
func statusStop(s string) result.StopReason {
	for r := result.StopNone; r <= result.StopPanicked; r++ {
		if r.String() == s {
			return r
		}
	}
	return result.StopNone
}
