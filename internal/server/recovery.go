package server

import (
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/result"
	"repro/internal/telemetry"
)

// Boot-time recovery: replay the journal's surviving records (already
// torn-tail-truncated by journal.Open) and rebuild every session that was
// live at the crash. Replay is deterministic because recovery runs the
// same code paths as live traffic — the create request goes back through
// newSession's decode + buildSpec, and each recOps record re-applies its
// ops through applyOp, stopping at the first failing op exactly as the
// original call did (op validation is deterministic, so a partially
// applied call is partially re-applied to the same point).

// recover rebuilds the session store from replayed records. Called from
// New before any worker or reaper goroutine starts, so the store is
// effectively single-threaded here.
func (st *sessionStore) recover(records []journal.Record) {
	type pendingCall struct{ seq int64 }
	sessions := map[string]*session{}
	pending := map[string]pendingCall{}
	var maxID uint64

	for _, rec := range records {
		switch rec.Type {
		case recOpen:
			var r journalOpen
			if json.Unmarshal(rec.Data, &r) != nil {
				continue
			}
			if s := st.rebuildSession(r.ID, r.Req); s != nil {
				sessions[r.ID] = s
			}
			maxID = maxUint64(maxID, parseSessionID(r.ID))
		case recOps:
			var r journalOps
			if json.Unmarshal(rec.Data, &r) != nil {
				continue
			}
			s := sessions[r.ID]
			if s == nil {
				continue
			}
			applyRecoveredOps(s, r.Ops)
			pending[r.ID] = pendingCall{seq: r.Seq}
		case recDone:
			var r journalDone
			if json.Unmarshal(rec.Data, &r) != nil {
				continue
			}
			s := sessions[r.ID]
			if s == nil {
				continue
			}
			s.lastSeq, s.lastCode = r.Seq, r.Code
			s.lastResp = SolveResponse{}
			if len(r.Resp) > 0 {
				json.Unmarshal(r.Resp, &s.lastResp) //nolint:errcheck // a CRC-valid record we wrote; zero response on the impossible mismatch
			}
			delete(pending, r.ID)
		case recClose:
			var r journalClose
			if json.Unmarshal(rec.Data, &r) != nil {
				continue
			}
			delete(sessions, r.ID)
			delete(pending, r.ID)
		case recSnapshot:
			var r journalSnapshot
			if json.Unmarshal(rec.Data, &r) != nil {
				continue
			}
			s := st.rebuildSession(r.ID, r.Req)
			if s == nil {
				continue
			}
			applyRecoveredOps(s, r.Ops)
			s.lastSeq, s.lastCode = r.LastSeq, r.LastCode
			s.lastResp = SolveResponse{}
			if len(r.LastResp) > 0 {
				json.Unmarshal(r.LastResp, &s.lastResp) //nolint:errcheck // as above
			}
			sessions[r.ID] = s
			delete(pending, r.ID)
			maxID = maxUint64(maxID, parseSessionID(r.ID))
		}
	}

	// A recOps with no recDone is a call torn by the crash: its frame ops
	// are applied (the client journaled them before executing, and just
	// re-applied them above), but the solve never finished. Consume the
	// seq and record a synthesized interrupted response, so the client's
	// retry of that seq replays a final — if degraded — outcome and the
	// ladder continues from consistent state.
	for id, p := range pending {
		s := sessions[id]
		resp := SolveResponse{
			Session: id,
			Verdict: result.Unknown.String(),
			Stop:    result.StopCancelled.String(),
			Depth:   s.solver.FrameDepth(),
			Error:   "solve interrupted by server restart; frame ops were applied",
		}
		s.lastSeq, s.lastCode, s.lastResp = p.seq, result.StatusUnavailable, resp
	}

	now := time.Now()
	st.mu.Lock()
	for id, s := range sessions {
		s.lastUsed = now
		st.sessions[id] = s
		st.created++
	}
	if maxID > st.nextID {
		// Fresh ids must not collide with recovered (or tombstoned) ones:
		// an id reuse would silently splice a new session onto an old
		// client's seq counter.
		st.nextID = maxID
	}
	st.mu.Unlock()

	st.jr.recoveredSessions = int64(len(sessions))
	st.jr.recoveredRecords = int64(len(records))
	st.cfg.Tracer.Emit(telemetry.KindJournal, 0, 0, 2, int64(len(sessions)))
}

// rebuildSession reconstructs session id from its journaled create
// request with newSession, the constructor of live creates. A request
// that fails to re-validate (impossible short of a schema change across a
// restart) drops the session rather than aborting recovery.
func (st *sessionStore) rebuildSession(id string, raw json.RawMessage) *session {
	s, err := st.newSession(raw)
	if err != nil {
		return nil
	}
	s.id = id
	return s
}

// applyRecoveredOps re-applies one journaled call's ops, stopping at the
// first failure exactly as the live op loop does.
func applyRecoveredOps(s *session, ops []SessionOp) {
	for _, op := range ops {
		if applyOp(s.solver, op) != nil {
			return
		}
		s.trackOp(op)
	}
}

// parseSessionID inverts the store's "s"+base36 id scheme (0 for foreign
// ids, which can then never collide with generated ones).
func parseSessionID(id string) uint64 {
	rest, ok := strings.CutPrefix(id, "s")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(rest, 36, 64)
	if err != nil {
		return 0
	}
	return n
}

func maxUint64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
