package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/result"
)

// crashStop halts the server the way kill -9 would have: no drain, no
// session tombstones — the journal is simply released with whatever was
// written so far. Recovery tests boot a second server over the same
// directory to stand in for the restarted process.
func (s *Server) crashStop() {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stopWorkers) })
	s.workers.Wait()
	if jr := s.sessions.jr; jr != nil && jr.j != nil {
		jr.j.Close() //nolint:errcheck // simulated crash; the fd just goes away
	}
}

// journaledService is testService plus a journal over dir; teardown is a
// clean drain (which tombstones, so use crashService for recovery tests).
func journaledService(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = dir
	if cfg.JournalFsync == "" {
		cfg.JournalFsync = "always"
	}
	return testService(t, cfg)
}

// crashService is journaledService with crash teardown.
func crashService(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = dir
	if cfg.JournalFsync == "" {
		cfg.JournalFsync = "always"
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.crashStop()
	})
	return s, ts
}

// rootSweep runs push/assume/solve and pop/solve over every root literal
// of tinyTrue, starting at seq, and returns the verdicts in call order.
func rootSweep(t *testing.T, url, id string, seq int64) []string {
	t.Helper()
	var out []string
	for _, l := range []int{1, -1, 2, -2} {
		for _, ops := range [][]SessionOp{
			{{Op: "push"}, {Op: "assume", Lits: []int{l}}},
			{{Op: "pop"}},
		} {
			status, resp := postSession(t, url, "/v1/session/"+id, SessionSolveRequest{Seq: seq, Ops: ops})
			if status != result.StatusOK || resp.Replayed {
				t.Fatalf("sweep seq %d (%v): got %d replayed=%v error=%q", seq, ops, status, resp.Replayed, resp.Error)
			}
			out = append(out, resp.Verdict)
			seq++
		}
	}
	return out
}

// TestSessionJournalRecovery is the core crash-tolerance contract: after
// an unclean death, a restarted server replays the journal, rebuilds the
// session's solver state, re-arms the idempotency record so a retried seq
// gets the recorded response, and the ladder continues where it left off.
// The script then assumes a root literal for good and sweeps every root
// literal through push/assume/solve/pop; after a second crash the
// recovered session must answer the same sweep with the same verdicts.
func TestSessionJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := crashService(t, dir, Config{Workers: 1})
	id := mustCreate(t, ts1.URL, SessionRequest{Formula: tinyTrue})

	if status, resp := postSession(t, ts1.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1}); status != result.StatusOK || resp.Verdict != "TRUE" {
		t.Fatalf("seq 1: got %d %q", status, resp.Verdict)
	}
	status, resp := postSession(t, ts1.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if status != result.StatusOK || resp.Verdict != "FALSE" || resp.Depth != 1 {
		t.Fatalf("seq 2: got %d %q depth=%d", status, resp.Verdict, resp.Depth)
	}
	ts1.Close()
	s1.crashStop()

	s2, ts2 := crashService(t, dir, Config{Workers: 1})
	jst := s2.Snapshot().Journal
	if !jst.Enabled || jst.Degraded || jst.RecoveredSessions != 1 || jst.RecoveredRecords < 4 {
		t.Fatalf("journal after recovery: %+v", jst)
	}

	// A client that never saw seq 2's response retries it: the recovered
	// idempotency record must replay the recorded outcome verbatim.
	status, resp = postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if status != result.StatusOK || resp.Verdict != "FALSE" || !resp.Replayed || resp.Depth != 1 {
		t.Fatalf("seq 2 retry after restart: got %d %q replayed=%v depth=%d error=%q",
			status, resp.Verdict, resp.Replayed, resp.Depth, resp.Error)
	}
	// The ladder continues on the rebuilt solver: popping the frame must
	// restore the base verdict, proving the frame ops were replayed.
	status, resp = postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 3, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 3 after restart: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}

	// x1 holds in tinyTrue's only model; assuming it at depth 0 keeps the
	// formula TRUE and makes every later ¬x1 contradict it.
	status, resp = postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 4, Ops: []SessionOp{{Op: "assume", Lits: []int{1}}}})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 4: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	live := rootSweep(t, ts2.URL, id, 5)
	want := []string{"TRUE", "TRUE", "FALSE", "TRUE", "FALSE", "TRUE", "TRUE", "TRUE"}
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("live sweep verdicts %v, want %v", live, want)
	}
	ts2.Close()
	s2.crashStop()

	s3, ts3 := journaledService(t, dir, Config{Workers: 1})
	if got := s3.Snapshot().Journal.RecoveredSessions; got != 1 {
		t.Fatalf("second recovery: %d sessions, want 1", got)
	}
	if recovered := rootSweep(t, ts3.URL, id, 5+int64(len(live))); fmt.Sprint(recovered) != fmt.Sprint(live) {
		t.Fatalf("recovered sweep verdicts %v, live %v", recovered, live)
	}
}

// TestSessionRestartAfterEvict pins the eviction-tombstone fix: a session
// evicted (LRU) before the crash must not be resurrected by recovery, and
// fresh ids must not collide with recovered ones.
func TestSessionRestartAfterEvict(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := crashService(t, dir, Config{Workers: 1, MaxSessions: 1})
	id1 := mustCreate(t, ts1.URL, SessionRequest{Formula: tinyTrue})
	id2 := mustCreate(t, ts1.URL, SessionRequest{Formula: tinyTrue}) // evicts id1
	if id1 == id2 {
		t.Fatalf("expected distinct ids, got %q twice", id1)
	}
	if status, resp := postSession(t, ts1.URL, "/v1/session/"+id2, SessionSolveRequest{Seq: 1}); status != result.StatusOK || resp.Verdict != "TRUE" {
		t.Fatalf("id2 seq 1: got %d %q", status, resp.Verdict)
	}
	ts1.Close()
	s1.crashStop()

	s2, ts2 := journaledService(t, dir, Config{Workers: 1, MaxSessions: 1})
	if got := s2.Snapshot().Journal.RecoveredSessions; got != 1 {
		t.Fatalf("recovered %d sessions, want 1 (evicted session must stay dead)", got)
	}
	if status, _ := postSession(t, ts2.URL, "/v1/session/"+id1, SessionSolveRequest{Seq: 1}); status != http.StatusNotFound {
		t.Fatalf("evicted session after restart: got %d, want 404", status)
	}
	if status, resp := postSession(t, ts2.URL, "/v1/session/"+id2, SessionSolveRequest{Seq: 1}); status != result.StatusOK || !resp.Replayed {
		t.Fatalf("id2 seq 1 retry after restart: got %d replayed=%v", status, resp.Replayed)
	}
	// A fresh create must mint an id beyond every journaled one.
	if id3 := mustCreate(t, ts2.URL, SessionRequest{Formula: tinyTrue}); id3 == id1 || id3 == id2 {
		t.Fatalf("fresh id %q collides with a recovered id", id3)
	}
}

// TestJournalDegradedServes is the degradation acceptance criterion: when
// the journal disk fails mid-flight, the store flips to visible
// non-durable mode and keeps serving — zero requests shed, /readyz and
// /statusz carry the marker.
func TestJournalDegradedServes(t *testing.T) {
	dir := t.TempDir()
	s, ts := journaledService(t, dir, Config{Workers: 1})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})
	if status, _ := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1}); status != result.StatusOK {
		t.Fatalf("seq 1: got %d", status)
	}

	// The disk dies: every subsequent append fails.
	s.sessions.jr.j.Close() //nolint:errcheck // simulating a failed journal disk

	status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if status != result.StatusOK || resp.Verdict != "FALSE" || resp.Shed != "" {
		t.Fatalf("solve after disk failure: got %d %q shed=%q", status, resp.Verdict, resp.Shed)
	}
	if id2 := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue}); id2 == "" {
		t.Fatal("create after disk failure failed")
	}

	st := s.Snapshot()
	if !st.Journal.Degraded || st.Journal.AppendErrors == 0 {
		t.Fatalf("journal stats after disk failure: %+v", st.Journal)
	}
	for reason, n := range st.Shed {
		if n != 0 {
			t.Fatalf("degraded mode shed %d requests (%s); must shed zero", n, reason)
		}
	}
	hresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || string(body) != "ready degraded:non-durable\n" {
		t.Fatalf("/readyz in degraded mode: %d %q", hresp.StatusCode, body)
	}
}

// TestJournalOpenFailureDegrades: an unusable journal directory at boot
// must not stop the server — it comes up degraded and serves.
func TestJournalOpenFailureDegrades(t *testing.T) {
	// A file where the directory should be makes MkdirAll fail.
	dir := t.TempDir() + "/occupied"
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testService(t, Config{Workers: 1, JournalDir: dir, JournalFsync: "always"})
	if jst := s.Snapshot().Journal; !jst.Enabled || !jst.Degraded {
		t.Fatalf("journal stats with unusable dir: %+v", jst)
	}
	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})
	if status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1}); status != result.StatusOK || resp.Verdict != "TRUE" {
		t.Fatalf("solve on degraded boot: got %d %q", status, resp.Verdict)
	}
}

// TestJournalTornCall: a crash between the recOps append and the recDone
// append (i.e. mid-solve) leaves a torn call. Recovery must apply the
// ops, consume the seq, and synthesize an interrupted response so the
// client's retry gets a final outcome and the ladder stays consistent.
func TestJournalTornCall(t *testing.T) {
	dir := t.TempDir()

	// Hand-craft the journal a crash would have left: open + ops, no done.
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	createBody, _ := json.Marshal(SessionRequest{Formula: tinyTrue})
	openRec, _ := json.Marshal(journalOpen{ID: "s1", Req: createBody})
	opsRec, _ := json.Marshal(journalOps{ID: "s1", Seq: 1,
		Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if err := j.Append(journal.Record{Type: recOpen, Data: openRec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Record{Type: recOps, Data: opsRec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := journaledService(t, dir, Config{Workers: 1})
	if got := s.Snapshot().Journal.RecoveredSessions; got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	// The retry of the torn seq replays the synthesized response: final
	// (Replayed), degraded (cancelled), with the frame ops applied.
	status, resp := postSession(t, ts.URL, "/v1/session/s1", SessionSolveRequest{
		Seq: 1, Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if status != result.StatusUnavailable || !resp.Replayed || resp.Stop != "cancelled" || resp.Depth != 1 {
		t.Fatalf("torn seq retry: got %d replayed=%v stop=%q depth=%d error=%q",
			status, resp.Replayed, resp.Stop, resp.Depth, resp.Error)
	}
	// The ladder continues from the applied ops: no pop yet → FALSE.
	status, resp = postSession(t, ts.URL, "/v1/session/s1", SessionSolveRequest{Seq: 2})
	if status != result.StatusOK || resp.Verdict != "FALSE" || resp.Depth != 1 {
		t.Fatalf("seq 2 after torn recovery: got %d %q depth=%d", status, resp.Verdict, resp.Depth)
	}
	status, resp = postSession(t, ts.URL, "/v1/session/s1", SessionSolveRequest{
		Seq: 3, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 3 after torn recovery: got %d %q depth=%d", status, resp.Verdict, resp.Depth)
	}
}

// TestJournalCompaction: snapshot compaction collapses a session's
// history to its live frames — popped frames drop out — and a restart
// from the compacted journal recovers the same logical state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := crashService(t, dir, Config{Workers: 1, JournalCompactEvery: 1})
	id := mustCreate(t, ts1.URL, SessionRequest{Formula: tinyTrue})

	// Build history with dead weight: two pushed-then-popped frames, then
	// one live frame.
	ladder := [][]SessionOp{
		{{Op: "push"}, {Op: "add", Lits: []int{-1}}},
		{{Op: "pop"}},
		{{Op: "push"}, {Op: "assume", Lits: []int{2}}},
		{{Op: "pop"}},
		{{Op: "push"}, {Op: "add", Lits: []int{-1}}},
	}
	for i, ops := range ladder {
		if status, resp := postSession(t, ts1.URL, "/v1/session/"+id, SessionSolveRequest{Seq: int64(i + 1), Ops: ops}); status != result.StatusOK {
			t.Fatalf("seq %d: got %d error=%q", i+1, status, resp.Error)
		}
	}
	s1.sessions.maybeCompact()
	jst := s1.Snapshot().Journal
	if jst.Compactions != 1 || jst.Segments != 1 {
		t.Fatalf("after compaction: %+v", jst)
	}
	ts1.Close()
	s1.crashStop()

	s2, ts2 := journaledService(t, dir, Config{Workers: 1})
	jst2 := s2.Snapshot().Journal
	if jst2.RecoveredSessions != 1 || jst2.RecoveredRecords != 1 {
		t.Fatalf("recovery from compacted journal: %+v", jst2)
	}
	// Replay of the last seq and continuation both work on the compacted
	// state: the live frame survived, the popped frames are gone.
	status, resp := postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: int64(len(ladder)), Ops: ladder[len(ladder)-1]})
	if status != result.StatusOK || !resp.Replayed || resp.Verdict != "FALSE" {
		t.Fatalf("replay after compacted recovery: got %d replayed=%v %q", status, resp.Replayed, resp.Verdict)
	}
	status, resp = postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: int64(len(ladder)) + 1, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("continue after compacted recovery: got %d %q depth=%d", status, resp.Verdict, resp.Depth)
	}
}

// TestDrainTombstonesJournal: a clean drain closes every session, so a
// restart over the same journal recovers none of them.
func TestDrainTombstonesJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, JournalDir: dir, JournalFsync: "always"}
	s1 := New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	id := mustCreate(t, ts1.URL, SessionRequest{Formula: tinyTrue})
	if status, _ := postSession(t, ts1.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1}); status != result.StatusOK {
		t.Fatal("seq 1 failed")
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, ts2 := journaledService(t, dir, Config{Workers: 1})
	if got := s2.Snapshot().Journal.RecoveredSessions; got != 0 {
		t.Fatalf("recovered %d sessions after a clean drain, want 0", got)
	}
	if status, _ := postSession(t, ts2.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 2}); status != http.StatusNotFound {
		t.Fatalf("drained session after restart: got %d, want 404", status)
	}
}
