package server

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The session write-ahead journal (DESIGN.md §13). Frame operations fully
// determine a session's logical state, so journaling every accepted op
// before executing it makes sessions survive process death: on boot the
// recovery manager (recovery.go) replays the surviving records through
// fresh incremental solvers and re-arms each session's idempotency record,
// so a client retrying its in-flight seq gets the recorded (or a
// synthesized interrupted) response and carries on.
//
// Record types and their JSON payloads. The journal package stores them
// as opaque bytes; this file owns the schema.
const (
	// recOpen: a session was created. Written after the id is assigned,
	// before the create response.
	recOpen uint8 = 1
	// recOps: a solve call's frame ops were accepted. Written after the
	// breaker admitted the call and before the first op is applied, so a
	// shed call (which consumes no seq) leaves no trace, while a crash
	// mid-call replays exactly the ops the client is about to retry.
	recOps uint8 = 2
	// recDone: a solve call completed and consumed its seq. Solves do not
	// change logical state, so only {seq, status, response} is logged —
	// enough to re-arm the idempotency record.
	recDone uint8 = 3
	// recClose: a tombstone. Written before the session's state is
	// dropped — DELETE, TTL expiry, LRU eviction, panic retirement, and
	// drain all tombstone, so recovery never resurrects a dead session.
	recClose uint8 = 4
	// recSnapshot: one session's entire live state, written by
	// compaction. Replaces any earlier records for the same id: the
	// create request, the flattened live frame ops (popped frames already
	// dropped), and the idempotency record.
	recSnapshot uint8 = 5
)

type journalOpen struct {
	ID string `json:"id"`
	// Req is the raw create-request body; recovery re-validates it
	// through the same decode + buildSpec path (newSession) as a live
	// create.
	Req json.RawMessage `json:"req"`
}

type journalOps struct {
	ID  string      `json:"id"`
	Seq int64       `json:"seq"`
	Ops []SessionOp `json:"ops"`
}

type journalDone struct {
	ID   string          `json:"id"`
	Seq  int64           `json:"seq"`
	Code int             `json:"code"`
	Resp json.RawMessage `json:"resp"`
}

type journalClose struct {
	ID string `json:"id"`
}

type journalSnapshot struct {
	ID  string          `json:"id"`
	Req json.RawMessage `json:"req"`
	// Ops is the session's live op sequence: frames[0] verbatim, then a
	// push before each deeper frame's ops.
	Ops      []SessionOp     `json:"ops,omitempty"`
	LastSeq  int64           `json:"last_seq"`
	LastCode int             `json:"last_code,omitempty"`
	LastResp json.RawMessage `json:"last_resp,omitempty"`
}

// journalState wraps the journal with the server's degradation policy: a
// disk that stops accepting appends must not take session traffic down
// with it. The first append failure flips the store into a visible,
// sticky "degraded: non-durable" mode — requests keep executing (and
// keep their in-memory idempotency), /statusz and /readyz carry the
// marker, and a KindJournal degrade event fires once. All methods are
// nil-receiver safe so the no-journal configuration costs one nil check.
type journalState struct {
	j      *journal.Journal
	tracer *telemetry.Tracer

	degraded atomic.Bool
	appends  atomic.Int64
	errors   atomic.Int64
	// sinceCompact counts appends since the last snapshot compaction; the
	// reaper tick triggers compaction past the configured threshold.
	sinceCompact atomic.Int64
	compactEvery int64

	recoveredSessions int64
	recoveredRecords  int64
}

// append marshals and journals one record, flipping degraded mode on
// failure. It reports whether the record was durably accepted (callers
// never branch on it for serving decisions — degraded mode still serves).
func (js *journalState) append(typ uint8, v any) bool {
	if js == nil || js.j == nil || js.degraded.Load() {
		return false
	}
	data, err := json.Marshal(v)
	if err == nil {
		err = js.j.Append(journal.Record{Type: typ, Data: data})
	}
	if err != nil {
		js.degrade()
		return false
	}
	n := js.appends.Add(1)
	js.sinceCompact.Add(1)
	js.tracer.Emit(telemetry.KindJournal, 0, 0, 0, n)
	return true
}

// degrade flips the store into non-durable mode (idempotent, sticky).
func (js *journalState) degrade() {
	if js == nil {
		return
	}
	js.errors.Add(1)
	if !js.degraded.Swap(true) {
		js.tracer.Emit(telemetry.KindJournal, 0, 0, 1, 0)
	}
}

// isDegraded reports non-durable mode (false when no journal is
// configured: there is nothing to degrade from).
func (js *journalState) isDegraded() bool {
	return js != nil && js.degraded.Load()
}

// close releases the journal; Drain calls it after every session was
// tombstoned.
func (js *journalState) close() {
	if js == nil || js.j == nil {
		return
	}
	if err := js.j.Close(); err != nil {
		js.errors.Add(1)
	}
}

// JournalStats reports the session journal for /statusz.
type JournalStats struct {
	// Enabled is true when a journal directory is configured.
	Enabled bool `json:"enabled"`
	// Degraded marks sticky non-durable mode after a disk failure:
	// sessions still serve, but will not survive a restart.
	Degraded bool `json:"degraded"`
	// Appends and AppendErrors count journal writes since boot.
	Appends      int64 `json:"appends"`
	AppendErrors int64 `json:"append_errors"`
	// RecoveredSessions / RecoveredRecords describe the boot-time replay.
	RecoveredSessions int64 `json:"recovered_sessions"`
	RecoveredRecords  int64 `json:"recovered_records"`
	// TruncatedBytes is what boot recovery dropped truncating a torn or
	// corrupt tail.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Compactions, Segments, and Bytes describe the on-disk log.
	Compactions int64 `json:"compactions"`
	Segments    int64 `json:"segments"`
	Bytes       int64 `json:"bytes"`
}

func (js *journalState) snapshot() JournalStats {
	if js == nil {
		return JournalStats{}
	}
	st := JournalStats{
		Enabled:           true,
		Degraded:          js.degraded.Load(),
		Appends:           js.appends.Load(),
		AppendErrors:      js.errors.Load(),
		RecoveredSessions: js.recoveredSessions,
		RecoveredRecords:  js.recoveredRecords,
	}
	if js.j != nil {
		jst := js.j.Stats()
		st.TruncatedBytes = jst.TruncatedBytes
		st.Compactions = jst.Compactions
		st.Segments = int64(jst.Segments)
		st.Bytes = jst.Bytes
	}
	return st
}
