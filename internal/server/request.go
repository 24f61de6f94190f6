package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/result"
)

// SolveRequest is the JSON body of POST /solve. Formula carries the
// instance in QDIMACS (prenex) or QTREE (non-prenex) text — the same two
// formats the CLIs read. The budget fields are requests, not commands:
// the server clamps each one to its configured cap, so a client cannot
// reserve more of a shared process than the operator allows.
type SolveRequest struct {
	// Formula is the instance text (QDIMACS or QTREE; required).
	Formula string `json:"formula"`
	// Mode selects the engine: "po" (default, partial-order tree search)
	// or "to" (total order on a prenex conversion).
	Mode string `json:"mode,omitempty"`
	// Strategy is the prenexing strategy for mode "to" on tree inputs:
	// eu-au (default), eu-ad, ed-au, ed-ad.
	Strategy string `json:"strategy,omitempty"`
	// MaxTimeMS / MaxNodes / MaxMemMB are the per-request budgets
	// (0 = the server's cap; values above the cap are clamped to it).
	MaxTimeMS int64 `json:"max_time_ms,omitempty"`
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	MaxMemMB  int64 `json:"max_mem_mb,omitempty"`
	// Witness asks for the outermost existential assignment on TRUE.
	Witness bool `json:"witness,omitempty"`
}

// SessionRequest is the JSON body of POST /v1/session: it opens a sticky
// incremental session over one formula. The budget fields are clamped by
// the server caps like SolveRequest's; the time budget applies per solve
// call, the node budget per solve call (re-armed before each), and the
// memory budget to the session's learned-constraint store.
type SessionRequest struct {
	// Formula is the instance text (QDIMACS or QTREE; required).
	Formula string `json:"formula"`
	// Mode selects the engine: "po" (default) or "to".
	Mode string `json:"mode,omitempty"`
	// Strategy is the prenexing strategy for mode "to" on tree inputs.
	Strategy string `json:"strategy,omitempty"`
	// MaxTimeMS / MaxNodes / MaxMemMB are the per-solve budgets
	// (0 = the server's cap; values above the cap are clamped to it).
	MaxTimeMS int64 `json:"max_time_ms,omitempty"`
	MaxNodes  int64 `json:"max_nodes,omitempty"`
	MaxMemMB  int64 `json:"max_mem_mb,omitempty"`
}

// SessionOp is one frame operation of a session solve call, applied in
// order before the solve. Lits are signed variable numbers (QDIMACS
// convention); push and pop take none.
type SessionOp struct {
	// Op is "push", "pop", "add" (a clause), or "assume" (unit clauses).
	Op string `json:"op"`
	// Lits are the operation's literals (add: the clause; assume: one unit
	// per literal).
	Lits []int `json:"lits,omitempty"`
}

// SessionSolveRequest is the JSON body of POST /v1/session/<id>: apply the
// frame operations in order, then solve. Seq makes retries idempotent —
// the first request on a fresh session carries 1, each subsequent request
// increments it, and a request re-sent with the last executed Seq replays
// the recorded response without re-executing anything. A Seq that is
// neither lastSeq nor lastSeq+1 is rejected with 409.
type SessionSolveRequest struct {
	// Seq is the client's request counter, starting at 1.
	Seq int64 `json:"seq"`
	// Ops are applied in order before the solve; the first failing op
	// aborts the request (already-applied ops stay applied — re-sync with
	// explicit push/pop or close the session if that is not recoverable).
	Ops []SessionOp `json:"ops,omitempty"`
	// Witness asks for the outermost existential assignment on TRUE.
	Witness bool `json:"witness,omitempty"`
}

// ParseSessionRequest decodes the body of a session-create request with
// the same strictness as ParseSolveRequest.
func ParseSessionRequest(body []byte) (*SessionRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SessionRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding session request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("decoding session request: trailing data after JSON body")
	}
	return &req, nil
}

// ParseSessionSolveRequest decodes the body of a session solve call.
func ParseSessionSolveRequest(body []byte) (*SessionSolveRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SessionSolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding session solve request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("decoding session solve request: trailing data after JSON body")
	}
	return &req, nil
}

// ResponseStats is the search-effort excerpt reported per request.
type ResponseStats struct {
	Decisions      int64 `json:"decisions"`
	Propagations   int64 `json:"propagations"`
	Conflicts      int64 `json:"conflicts"`
	Solutions      int64 `json:"solutions"`
	LearnedClauses int64 `json:"learned_clauses"`
	LearnedCubes   int64 `json:"learned_cubes"`
	Fixpoints      int64 `json:"fixpoints"`
}

// SolveResponse is the JSON body of every /solve reply — verdicts, budget
// stops, shed load, and errors all share this one schema, so a client can
// decode any outcome without sniffing the status code first.
type SolveResponse struct {
	// Verdict is TRUE, FALSE, or UNKNOWN; empty when the request was
	// rejected before a solve ran (400 and shed responses).
	Verdict string `json:"verdict,omitempty"`
	// Stop explains an UNKNOWN verdict (result.StopReason string).
	Stop string `json:"stop,omitempty"`
	// Shed names the admission-layer rejection (ShedReason string) on 429
	// and pre-solve 503 responses.
	Shed string `json:"shed,omitempty"`
	// Error carries the decode/validation/panic message.
	Error string `json:"error,omitempty"`
	// Witness is the outermost existential assignment as signed variable
	// numbers, present on TRUE when requested and available.
	Witness []int `json:"witness,omitempty"`
	// Stats reports search effort for completed solves.
	Stats *ResponseStats `json:"stats,omitempty"`
	// Source marks responses the qbfgate front tier served from its
	// canonical-form verdict cache ("cache"). Absent on responses a
	// backend solved.
	Source string `json:"source,omitempty"`
	// Session is the sticky-session id, present on every /v1/session
	// response (the create response carries only this plus Depth).
	Session string `json:"session,omitempty"`
	// Depth is the session's open frame depth after the request's ops.
	Depth int `json:"depth,omitempty"`
	// Replayed marks a response served from the session's idempotency
	// record (a retry carrying the last executed Seq) without re-solving.
	Replayed bool `json:"replayed,omitempty"`
	// QueueMS and SolveMS split the request's wall-clock between waiting
	// for a worker and solving.
	QueueMS int64 `json:"queue_ms"`
	SolveMS int64 `json:"solve_ms"`
}

// SourceCache is the SolveResponse.Source value for verdicts the gate
// served from its canonical-form cache instead of a live backend solve.
const SourceCache = "cache"

// Caps are the server-wide budget ceilings. A zero field leaves that
// dimension uncapped (requests may then also leave it unlimited).
type Caps struct {
	// MaxTime bounds the per-request wall-clock budget.
	MaxTime time.Duration
	// MaxNodes bounds the per-request decision budget.
	MaxNodes int64
	// MaxMem bounds the per-request learned-constraint byte budget.
	MaxMem int64
}

// solveSpec is a validated, budget-clamped request ready to enter the
// work queue.
type solveSpec struct {
	q        *qbf.QBF
	mode     string // "po" or "to"
	strategy prenex.Strategy
	opt      core.Options
	witness  bool
	// key groups requests for the circuit breaker and quarantine ledger:
	// one breaker per solver configuration, so a poison config is isolated
	// without blocking the others.
	key string
}

// ParseSolveRequest decodes the JSON body of a /solve request. Unknown
// fields are rejected — a typoed budget field silently ignored would make
// the caller believe a budget is in force when none is — as is trailing
// garbage after the JSON object.
func ParseSolveRequest(body []byte) (*SolveRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	// A second document (or any non-space trailing bytes) is a framing
	// error, not extra context to ignore.
	if dec.More() {
		return nil, fmt.Errorf("decoding request: trailing data after JSON body")
	}
	return &req, nil
}

// buildSpec validates a decoded request against the server caps: the
// formula must parse and validate, the mode and strategy must be known,
// and every budget is clamped into (0, cap]. It never runs the solver.
func buildSpec(req *SolveRequest, caps Caps) (*solveSpec, error) {
	if req.Formula == "" {
		return nil, fmt.Errorf("empty formula")
	}
	if req.MaxTimeMS < 0 || req.MaxNodes < 0 || req.MaxMemMB < 0 {
		return nil, fmt.Errorf("negative budget (max_time_ms=%d max_nodes=%d max_mem_mb=%d)",
			req.MaxTimeMS, req.MaxNodes, req.MaxMemMB)
	}
	q, err := qdimacs.ReadString(req.Formula)
	if err != nil {
		return nil, fmt.Errorf("parsing formula: %w", err)
	}
	// The reader leaves duplicate literals and tautological clauses to the
	// standard cleanup (see the qdimacs package contract); run it here so a
	// request the workers would reject is a 400 at decode time — and, for
	// sessions, never journaled.
	q.NormalizeMatrix()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("invalid formula: %w", err)
	}
	spec := &solveSpec{q: q, witness: req.Witness}
	spec.opt = core.Options{
		TimeLimit: clampDuration(time.Duration(req.MaxTimeMS)*time.Millisecond, caps.MaxTime),
		NodeLimit: clampInt64(req.MaxNodes, caps.MaxNodes),
		MemLimit:  clampInt64(req.MaxMemMB<<20, caps.MaxMem),
	}
	mode := req.Mode
	if mode == "" {
		mode = "po"
	}
	switch mode {
	case "po":
		if req.Strategy != "" {
			return nil, fmt.Errorf("strategy %q is only meaningful with mode \"to\"", req.Strategy)
		}
		spec.opt.Mode = core.ModePartialOrder
		spec.key = "po"
	case "to":
		s, err := parseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		spec.strategy = s
		spec.opt.Mode = core.ModeTotalOrder
		if !q.Prefix.IsPrenex() {
			spec.q = prenex.Apply(q, s)
		}
		name := req.Strategy
		if name == "" {
			name = "eu-au"
		}
		spec.key = "to:" + name
	default:
		return nil, fmt.Errorf("unknown mode %q", req.Mode)
	}
	spec.mode = mode
	return spec, nil
}

// clampDuration applies a cap: 0 means "the cap itself" (or unlimited
// when the cap is 0), anything above the cap is pulled down to it.
func clampDuration(d, cap time.Duration) time.Duration {
	if cap <= 0 {
		return d
	}
	if d <= 0 || d > cap {
		return cap
	}
	return d
}

func clampInt64(v, cap int64) int64 {
	if cap <= 0 {
		return v
	}
	if v <= 0 || v > cap {
		return cap
	}
	return v
}

func parseStrategy(s string) (prenex.Strategy, error) {
	switch s {
	case "", "eu-au":
		return prenex.EUpAUp, nil
	case "eu-ad":
		return prenex.EUpADown, nil
	case "ed-au":
		return prenex.EDownAUp, nil
	case "ed-ad":
		return prenex.EDownADown, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

// respond assembles the SolveResponse for a finished solve.
func solveResponse(v result.Verdict, stop result.StopReason, st result.Stats, witness []int, solveErr error) SolveResponse {
	resp := SolveResponse{
		Verdict: v.String(),
		Witness: witness,
		Stats: &ResponseStats{
			Decisions:      st.Decisions,
			Propagations:   st.Propagations,
			Conflicts:      st.Conflicts,
			Solutions:      st.Solutions,
			LearnedClauses: st.LearnedClauses,
			LearnedCubes:   st.LearnedCubes,
			Fixpoints:      st.Fixpoints,
		},
	}
	if v == result.Unknown && stop != result.StopNone {
		resp.Stop = stop.String()
	}
	if solveErr != nil {
		resp.Error = solveErr.Error()
	}
	return resp
}

// witnessInts flattens a witness model into signed variable numbers in
// increasing variable order (the JSON analogue of the CLI's "v" line).
func witnessInts(model map[qbf.Var]bool, maxVar int) []int {
	if model == nil {
		return nil
	}
	out := make([]int, 0, len(model))
	for v := qbf.MinVar; v.Int() <= maxVar; v++ {
		if val, has := model[v]; has {
			if val {
				out = append(out, v.Int())
			} else {
				out = append(out, -v.Int())
			}
		}
	}
	return out
}
