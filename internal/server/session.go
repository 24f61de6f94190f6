package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/qbf"
	"repro/internal/result"
	"repro/internal/telemetry"
)

// Sticky sessions expose the core incremental API (Push/Pop/AddClause/
// Assume between Solve calls) over HTTP:
//
//	POST   /v1/session        open a session over one formula
//	POST   /v1/session/<id>   apply frame ops, then solve (seq-idempotent)
//	DELETE /v1/session/<id>   close the session
//
// A session pins one core.Solver for its lifetime, so its learned clauses
// (and their frame tags) persist across calls — the entire point of the
// API. That pinned state is what makes sessions "sticky" and what the
// store has to govern:
//
//   - concurrency: a per-session mutex serializes solve calls; concurrent
//     calls against one session queue behind each other rather than
//     interleaving frame ops;
//   - idempotency: each call carries a client sequence number; a retry of
//     the last executed call replays its recorded response instead of
//     re-applying ops (which would not be idempotent: pop twice ≠ pop);
//   - memory: the session count is capped; opening a session beyond the
//     cap evicts the least-recently-used idle session (one whose mutex is
//     free — an in-flight solve is never evicted), and sheds with 429
//     when every session is busy;
//   - lifetime: a reaper expires sessions idle past the TTL, and Drain
//     closes every session after in-flight calls finish;
//   - containment: session solves run under SafeSolve with a per-mode
//     "session:<mode>" circuit breaker; a contained panic poisons the
//     solver state beyond recovery, so the session is closed on the spot.
type sessionStore struct {
	cfg Config
	srv *Server
	// jr is the write-ahead journal envelope (nil-safe; see journal.go).
	// Every accepted op is journaled before execution and every teardown
	// path appends a tombstone before dropping state, so boot recovery
	// (recovery.go) reconstructs exactly the sessions that were live.
	jr *journalState

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	created  int64
	expired  int64
	evicted  int64
	closed   int64
}

// session is one sticky incremental solver and its idempotency record.
type session struct {
	id   string
	mode string // breaker/quarantine key suffix ("po", "to:eu-au", ...)

	// createReq is the raw create-request body, retained for journal
	// snapshots (compaction re-journals it with the live ops).
	createReq json.RawMessage

	// mu serializes calls; the evictor uses TryLock so an in-flight solve
	// is never evicted. Fields below are guarded by it.
	mu       sync.Mutex
	solver   *core.Solver
	maxNodes int64 // per-solve decision budget (0 = none); re-armed per call
	lastSeq  int64
	lastResp SolveResponse // response of lastSeq, for idempotent replay
	lastCode int
	closed   bool
	// frames mirrors the solver's live frame ops for snapshot compaction:
	// frames[0] holds ops applied outside any push, each push opens a new
	// entry, and pop drops the deepest — so popped frames cost nothing in
	// a compacted journal.
	frames [][]SessionOp

	// lastUsed is guarded by the store mutex (the LRU scan reads it while
	// holding only the store lock).
	lastUsed time.Time
}

func newSessionStore(cfg Config, srv *Server) *sessionStore {
	return &sessionStore{cfg: cfg, srv: srv, sessions: map[string]*session{}}
}

// handleCreate serves POST /v1/session.
func (st *sessionStore) handleCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, SolveResponse{Error: "POST a SessionRequest to /v1/session"})
		return
	}
	body, ok := st.srv.readBody(w, r)
	if !ok {
		return
	}
	sess, err := st.newSession(body)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, SolveResponse{Error: err.Error()})
		return
	}
	if !st.admit(sess) {
		st.srv.writeShed(w, ShedSessionsFull, result.StatusTooManyRequests)
		return
	}
	st.jr.append(recOpen, journalOpen{ID: sess.id, Req: body})
	writeJSON(w, result.StatusOK, SolveResponse{Session: sess.id})
}

// newSession builds a session, without an id, from a create-request body:
// the one constructor of live creates (handleCreate) and journal replay
// (rebuildSession), so a replayed session cannot drift from a live one.
func (st *sessionStore) newSession(body []byte) (*session, error) {
	req, err := decodeRequest[SessionRequest](body, "session request")
	if err != nil {
		return nil, err
	}
	spec, err := buildSpec(&SolveRequest{
		Formula:   req.Formula,
		Mode:      req.Mode,
		Strategy:  req.Strategy,
		MaxTimeMS: req.MaxTimeMS,
		MaxNodes:  req.MaxNodes,
		MaxMemMB:  req.MaxMemMB,
	}, st.cfg.Caps)
	if err != nil {
		return nil, err
	}
	spec.opt.Telemetry = st.cfg.Tracer
	spec.opt.Incremental = true
	// The per-solve node budget is re-armed before every call (NodeLimit
	// is cumulative over a solver's lifetime); stash it and disarm.
	maxNodes := spec.opt.NodeLimit
	spec.opt.NodeLimit = 0
	solver, err := core.NewSolver(spec.q, spec.opt)
	if err != nil {
		return nil, err
	}
	if st.cfg.testSolverHook != nil {
		st.cfg.testSolverHook(spec, solver)
	}
	return &session{
		mode: spec.key, solver: solver, maxNodes: maxNodes,
		createReq: body, frames: [][]SessionOp{nil},
	}, nil
}

// admit registers a fresh session, evicting the LRU idle session when the
// store is full. It reports false when every session is busy solving (the
// caller sheds with 429).
func (st *sessionStore) admit(sess *session) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.sessions) >= st.cfg.MaxSessions {
		victim := st.lruIdleLocked()
		if victim == nil {
			return false
		}
		// Tombstone before dropping state: if the process dies between the
		// append and the delete, recovery closes a session that was about
		// to be evicted anyway — the reverse order would resurrect it.
		st.jr.append(recClose, journalClose{ID: victim.id})
		delete(st.sessions, victim.id)
		st.evicted++
		victim.closed = true
		victim.solver = nil
		victim.mu.Unlock()
		st.emit(4, len(st.sessions))
	}
	st.nextID++
	sess.id = "s" + strconv.FormatUint(st.nextID, 36)
	sess.lastUsed = time.Now()
	st.sessions[sess.id] = sess
	st.created++
	st.emit(0, len(st.sessions))
	return true
}

// lruIdleLocked returns the least-recently-used session whose mutex could
// be acquired, still holding that mutex (the caller closes and unlocks),
// or nil when every session is mid-call.
func (st *sessionStore) lruIdleLocked() *session {
	var cands []*session
	for _, s := range st.sessions {
		cands = append(cands, s)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUsed.Before(cands[j].lastUsed) })
	for _, s := range cands {
		if s.mu.TryLock() {
			return s
		}
	}
	return nil
}

// handleSession serves POST (ops+solve) and DELETE (close) on
// /v1/session/<id>.
func (st *sessionStore) handleSession(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, SolveResponse{Error: "no such session"})
		return
	}
	switch r.Method {
	case http.MethodDelete:
		st.close(w, id)
	case http.MethodPost:
		st.solve(w, r, id)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, SolveResponse{Error: "POST ops or DELETE to /v1/session/<id>"})
	}
}

func (st *sessionStore) lookup(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.sessions[id]
	if s != nil {
		s.lastUsed = time.Now()
	}
	return s
}

func (st *sessionStore) close(w http.ResponseWriter, id string) {
	st.mu.Lock()
	sess := st.sessions[id]
	if sess == nil {
		st.mu.Unlock()
		writeJSON(w, http.StatusNotFound, SolveResponse{Error: "no such session"})
		return
	}
	st.jr.append(recClose, journalClose{ID: id})
	delete(st.sessions, id)
	st.closed++
	live := len(st.sessions)
	st.mu.Unlock()

	// Wait for an in-flight call to finish before releasing the solver.
	sess.mu.Lock()
	sess.closed = true
	sess.solver = nil
	sess.mu.Unlock()
	st.emit(2, live)
	writeJSON(w, result.StatusOK, SolveResponse{Session: id})
}

func (st *sessionStore) solve(w http.ResponseWriter, r *http.Request, id string) {
	body, ok := st.srv.readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeRequest[SessionSolveRequest](body, "session solve request")
	if err != nil {
		writeJSON(w, result.StatusBadRequest, SolveResponse{Error: err.Error()})
		return
	}
	sess := st.lookup(id)
	if sess == nil {
		writeJSON(w, http.StatusNotFound, SolveResponse{Error: "no such session"})
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		// Lost the race with close/evict between lookup and lock.
		writeJSON(w, http.StatusNotFound, SolveResponse{Error: "no such session"})
		return
	}
	switch {
	case req.Seq == sess.lastSeq && req.Seq > 0:
		// Idempotent replay of the last executed call.
		resp := sess.lastResp
		resp.Replayed = true
		writeJSON(w, sess.lastCode, resp)
		return
	case req.Seq != sess.lastSeq+1:
		writeJSON(w, http.StatusConflict, SolveResponse{
			Session: id, Depth: sess.solver.FrameDepth(),
			Error: fmt.Sprintf("seq %d out of order (last executed %d)", req.Seq, sess.lastSeq)})
		return
	}

	status, resp, executed := st.execute(r, sess, req)
	resp.Session = id
	if executed {
		// A shed (breaker open) applied no ops, so it must not consume
		// the seq: the client retries the same seq and the ops run then.
		sess.lastSeq = req.Seq
		sess.lastResp = resp
		sess.lastCode = status
		// Solves do not change logical state, so the journal only needs
		// the idempotency record: on recovery a retried seq replays this
		// response instead of re-running anything.
		if data, err := json.Marshal(resp); err == nil {
			st.jr.append(recDone, journalDone{ID: id, Seq: req.Seq, Code: status, Resp: data})
		}
	}
	writeJSON(w, status, resp)

	if status == result.StatusInternalError {
		// A contained panic leaves the solver state unusable; retire the
		// session (its id keeps answering 404 from now on).
		sess.closed = true
		sess.solver = nil
		st.mu.Lock()
		st.jr.append(recClose, journalClose{ID: id})
		delete(st.sessions, id)
		st.closed++
		live := len(st.sessions)
		st.mu.Unlock()
		st.emit(2, live)
	}
}

// execute applies the request's ops and runs the solve under the session
// breaker, full containment, and the server drain context. The caller
// holds the session mutex. The executed result is false only when the
// call was shed before any op was applied (the seq is then not consumed).
func (st *sessionStore) execute(r *http.Request, sess *session, req *SessionSolveRequest) (int, SolveResponse, bool) {
	srv := st.srv
	key := "session:" + sess.mode
	br := srv.breakerFor(key)
	tk, ok := br.Admit()
	if !ok {
		srv.shed[ShedBreakerOpen].Add(1)
		srv.emit(telemetry.KindShed, int64(ShedBreakerOpen), 0)
		return result.StatusUnavailable, SolveResponse{Shed: ShedBreakerOpen.String(),
			Error: "load shed: " + ShedBreakerOpen.String()}, false
	}

	// Journal the accepted call before executing anything: a crash from
	// here on replays exactly the ops the client will retry. Appending
	// after the breaker admit keeps shed calls (which consume no seq and
	// apply no ops) out of the journal.
	if len(req.Ops) > 0 {
		st.jr.append(recOps, journalOps{ID: sess.id, Seq: req.Seq, Ops: req.Ops})
	}
	for i, op := range req.Ops {
		if err := applyOp(sess.solver, op); err != nil {
			br.Cancel(tk)
			// Earlier ops did apply, so this rejection consumes the seq.
			// Recovery reproduces the partial application: replaying the
			// journaled ops fails at this same op.
			return result.StatusBadRequest, SolveResponse{
				Depth: sess.solver.FrameDepth(),
				Error: fmt.Sprintf("op %d (%s): %v", i, op.Op, err)}, true
		}
		sess.trackOp(op)
	}

	if sess.maxNodes > 0 {
		sess.solver.SetNodeLimit(sess.solver.Stats().Decisions + sess.maxNodes)
	}
	ctx, cancel := srv.mergeCtx(r.Context())
	srv.active.Add(1)
	start := time.Now()
	before := sess.solver.Stats()
	v, err := sess.solver.SafeSolve(ctx)
	elapsed := time.Since(start)
	srv.active.Add(-1)
	cancel()
	stats := sess.solver.Stats()

	if err != nil {
		br.Done(tk, false)
		srv.panics.Add(1)
		srv.mu.Lock()
		srv.quarantine[key]++
		srv.mu.Unlock()
		resp := solveResponse(result.Unknown, result.StopPanicked, stats, nil, err)
		resp.SolveMS = elapsed.Milliseconds()
		return result.StatusInternalError, resp, true
	}
	br.Done(tk, true)

	var wit []int
	if req.Witness && v == core.True {
		if model, has := sess.solver.Witness(); has {
			wit = witnessInts(model, maxWitnessVar(model))
		}
	}
	resp := solveResponse(v, stats.StopReason, stats, wit, nil)
	resp.Depth = sess.solver.FrameDepth()
	resp.SolveMS = elapsed.Milliseconds()
	resp.Stats.Decisions = stats.Decisions - before.Decisions
	resp.Stats.Propagations = stats.Propagations - before.Propagations
	resp.Stats.Conflicts = stats.Conflicts - before.Conflicts
	resp.Stats.Solutions = stats.Solutions - before.Solutions
	resp.Stats.Fixpoints = stats.Fixpoints - before.Fixpoints
	st.emit(1, st.live())
	return result.HTTPStatus(v, stats.StopReason), resp, true
}

// applyOp maps one wire-format frame operation onto the solver.
func applyOp(s *core.Solver, op SessionOp) error {
	switch op.Op {
	case "push":
		if len(op.Lits) != 0 {
			return fmt.Errorf("push takes no literals")
		}
		_, err := s.Push()
		return err
	case "pop":
		if len(op.Lits) != 0 {
			return fmt.Errorf("pop takes no literals")
		}
		_, err := s.Pop()
		return err
	case "add":
		return s.AddClause(toLits(op.Lits))
	case "assume":
		return s.Assume(toLits(op.Lits)...)
	default:
		return fmt.Errorf("unknown op %q (want push, pop, add, or assume)", op.Op)
	}
}

func toLits(ints []int) []qbf.Lit {
	lits := make([]qbf.Lit, len(ints))
	for i, n := range ints {
		if n != 0 {
			lits[i] = qbf.LitOf(n)
		}
		// A wire 0 stays the zero value: AddClause/Assume reject it with
		// a client error, where LitOf would panic on untrusted input.
	}
	return lits
}

// maxWitnessVar sizes the witness flattening (sessions do not retain the
// original QBF, only the solver).
func maxWitnessVar(model map[qbf.Var]bool) int {
	max := 0
	for v := range model {
		if v.Int() > max {
			max = v.Int()
		}
	}
	return max
}

// live returns the current session count.
func (st *sessionStore) live() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// reap closes sessions idle past the TTL. Called periodically by the
// server's reaper goroutine.
func (st *sessionStore) reap(now time.Time) {
	var victims []*session
	st.mu.Lock()
	for id, s := range st.sessions {
		if now.Sub(s.lastUsed) > st.cfg.SessionTTL {
			// Tombstone before dropping state (see admit).
			st.jr.append(recClose, journalClose{ID: id})
			delete(st.sessions, id)
			st.expired++
			victims = append(victims, s)
		}
	}
	live := len(st.sessions)
	st.mu.Unlock()
	for _, s := range victims {
		s.mu.Lock()
		s.closed = true
		s.solver = nil
		s.mu.Unlock()
		st.emit(3, live)
	}
}

// closeAll retires every session; Drain calls it after in-flight requests
// finish (taking each mutex waits out any straggler).
func (st *sessionStore) closeAll() {
	st.mu.Lock()
	var all []*session
	for id, s := range st.sessions {
		// A drain intentionally closes every session, so each one is
		// tombstoned: a restart after a clean shutdown recovers nothing,
		// matching the wire protocol (clients saw their sessions die).
		st.jr.append(recClose, journalClose{ID: id})
		delete(st.sessions, id)
		st.closed++
		all = append(all, s)
	}
	st.mu.Unlock()
	for _, s := range all {
		s.mu.Lock()
		s.closed = true
		s.solver = nil
		s.mu.Unlock()
	}
	if len(all) > 0 {
		st.emit(2, 0)
	}
}

// snapshot reports the session counters for /statusz.
func (st *sessionStore) snapshot() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SessionStats{
		Live:    int64(len(st.sessions)),
		Created: st.created,
		Closed:  st.closed,
		Expired: st.expired,
		Evicted: st.evicted,
	}
}

func (st *sessionStore) emit(event int64, live int) {
	st.cfg.Tracer.Emit(telemetry.KindSession, 0, 0, event, int64(live))
}

// trackOp mirrors one successfully applied op into the session's live
// frame record (the compaction snapshot source). The caller holds the
// session mutex.
func (sess *session) trackOp(op SessionOp) {
	switch op.Op {
	case "push":
		sess.frames = append(sess.frames, nil)
	case "pop":
		if n := len(sess.frames); n > 1 {
			sess.frames = sess.frames[:n-1]
		}
	default:
		i := len(sess.frames) - 1
		sess.frames[i] = append(sess.frames[i], op)
	}
}

// liveOps flattens the session's live frames into the op sequence that
// reconstructs its solver from a fresh create: frames[0] verbatim, then a
// push before each deeper frame. Popped frames are already gone — that is
// what makes a compacted journal smaller than its history.
func (sess *session) liveOps() []SessionOp {
	var out []SessionOp
	for i, fr := range sess.frames {
		if i > 0 {
			out = append(out, SessionOp{Op: "push"})
		}
		out = append(out, fr...)
	}
	return out
}

// maybeCompact rewrites the journal as one snapshot record per live
// session once enough appends have accumulated. Every session must be
// idle — the snapshot has to capture a consistent cut, so the store and
// all session locks are held across the journal.Compact call and the
// round is skipped if any session is mid-solve (the next reaper tick
// retries). Called from the server's reaper goroutine.
func (st *sessionStore) maybeCompact() {
	jr := st.jr
	if jr == nil || jr.j == nil || jr.isDegraded() || jr.sinceCompact.Load() < jr.compactEvery {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var locked []*session
	defer func() {
		for _, s := range locked {
			s.mu.Unlock()
		}
	}()
	for _, s := range st.sessions {
		if !s.mu.TryLock() {
			return // a session is busy; retry next tick
		}
		locked = append(locked, s)
	}
	recs := make([]journal.Record, 0, len(locked))
	for _, s := range locked {
		snap := journalSnapshot{
			ID: s.id, Req: s.createReq, Ops: s.liveOps(),
			LastSeq: s.lastSeq, LastCode: s.lastCode,
		}
		if resp, err := json.Marshal(s.lastResp); err == nil {
			snap.LastResp = resp
		}
		data, err := json.Marshal(snap)
		if err != nil {
			jr.degrade()
			return
		}
		recs = append(recs, journal.Record{Type: recSnapshot, Data: data})
	}
	if err := jr.j.Compact(recs); err != nil {
		jr.degrade()
		return
	}
	jr.sinceCompact.Store(0)
	st.cfg.Tracer.Emit(telemetry.KindJournal, 0, 0, 3, int64(len(recs)))
}
