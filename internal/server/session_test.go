package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/result"
)

// postSession posts a raw payload to a session endpoint and decodes the
// response.
func postSession(t *testing.T, url, path string, payload any) (int, SolveResponse) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("status %d with undecodable body: %v", hresp.StatusCode, err)
	}
	return hresp.StatusCode, resp
}

func deleteSession(t *testing.T, url, id string) (int, SolveResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("status %d with undecodable body: %v", hresp.StatusCode, err)
	}
	return hresp.StatusCode, resp
}

// mustCreate opens a session and returns its id.
func mustCreate(t *testing.T, url string, req SessionRequest) string {
	t.Helper()
	status, resp := postSession(t, url, "/v1/session", req)
	if status != result.StatusOK || resp.Session == "" {
		t.Fatalf("create: got %d session=%q error=%q", status, resp.Session, resp.Error)
	}
	return resp.Session
}

// TestSessionLifecycle drives one session through the full protocol:
// solve, push+add, pop, witness, close — checking verdicts, frame depth,
// and per-call stats deltas along the way.
func TestSessionLifecycle(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})

	status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 1: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	if resp.Session != id || resp.Stats == nil {
		t.Fatalf("seq 1: session=%q stats=%v", resp.Session, resp.Stats)
	}

	// tinyTrue forces 1=true, 2=false; asserting literal -1 in a frame
	// flips the verdict, popping the frame restores it.
	status, resp = postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}})
	if status != result.StatusOK || resp.Verdict != "FALSE" || resp.Depth != 1 {
		t.Fatalf("seq 2: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	status, resp = postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 3, Ops: []SessionOp{{Op: "pop"}}, Witness: true})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 3: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	if len(resp.Witness) != 2 || resp.Witness[0] != 1 || resp.Witness[1] != -2 {
		t.Fatalf("seq 3: witness %v, want [1 -2]", resp.Witness)
	}

	status, resp = deleteSession(t, ts.URL, id)
	if status != result.StatusOK || resp.Session != id {
		t.Fatalf("close: got %d %+v", status, resp)
	}
	if status, _ := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 4}); status != http.StatusNotFound {
		t.Fatalf("solve after close: got %d, want 404", status)
	}
	if status, _ := deleteSession(t, ts.URL, id); status != http.StatusNotFound {
		t.Fatalf("double close: got %d, want 404", status)
	}
}

// TestSessionSeqProtocol pins the idempotency contract: a retry of the
// last executed seq replays the recorded response (marked Replayed), any
// other out-of-order seq is rejected with 409, and failed ops still
// consume their seq (they may have partially applied).
func TestSessionSeqProtocol(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})

	status, first := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1})
	if status != result.StatusOK || first.Verdict != "TRUE" {
		t.Fatalf("seq 1: got %d %q", status, first.Verdict)
	}
	status, replay := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1})
	if status != result.StatusOK || replay.Verdict != "TRUE" || !replay.Replayed {
		t.Fatalf("seq 1 retry: got %d %q replayed=%v", status, replay.Verdict, replay.Replayed)
	}
	if first.Replayed {
		t.Fatal("first execution must not be marked replayed")
	}
	for _, seq := range []int64{0, 3, 7} {
		if status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: seq}); status != http.StatusConflict {
			t.Fatalf("seq %d: got %d %q, want 409", seq, status, resp.Error)
		}
	}

	// A failing op consumes its seq: the 400 is recorded and replayable,
	// and the next seq continues from there.
	status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusBadRequest {
		t.Fatalf("pop at depth 0: got %d %q, want 400", status, resp.Error)
	}
	status, resp = postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusBadRequest || !resp.Replayed {
		t.Fatalf("400 retry: got %d replayed=%v", status, resp.Replayed)
	}
	if status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 3}); status != result.StatusOK || resp.Verdict != "TRUE" {
		t.Fatalf("seq 3 after failed op: got %d %q", status, resp.Verdict)
	}
}

// TestSessionBadRequests sweeps the rejection paths: malformed ops,
// out-of-prefix literals, an unknown mode, bad JSON, and bogus ids.
func TestSessionBadRequests(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})

	if status, resp := postSession(t, ts.URL, "/v1/session", SessionRequest{Formula: tinyTrue, Mode: "portfolio"}); status != result.StatusBadRequest {
		t.Fatalf("portfolio session: got %d %q, want 400", status, resp.Error)
	}
	if status, _ := postSession(t, ts.URL, "/v1/session", SessionRequest{Formula: "p cnf zz"}); status != result.StatusBadRequest {
		t.Fatalf("bad formula: got %d, want 400", status)
	}
	if status, _ := postSession(t, ts.URL, "/v1/session/nope", SessionSolveRequest{Seq: 1}); status != http.StatusNotFound {
		t.Fatalf("bogus id: got %d, want 404", status)
	}
	if status, _ := postSession(t, ts.URL, "/v1/session/a/b", SessionSolveRequest{Seq: 1}); status != http.StatusNotFound {
		t.Fatalf("nested path: got %d, want 404", status)
	}

	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})
	cases := []struct {
		name string
		ops  []SessionOp
	}{
		{"unknown op", []SessionOp{{Op: "frobnicate"}}},
		{"push with lits", []SessionOp{{Op: "push", Lits: []int{1}}}},
		{"zero literal", []SessionOp{{Op: "add", Lits: []int{1, 0}}}},
		{"unbound variable", []SessionOp{{Op: "add", Lits: []int{99}}}},
		{"assume unbound", []SessionOp{{Op: "assume", Lits: []int{-77}}}},
	}
	for i, c := range cases {
		status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
			Seq: int64(i + 1), Ops: c.ops})
		if status != result.StatusBadRequest || resp.Error == "" {
			t.Fatalf("%s: got %d %q, want 400 with error", c.name, status, resp.Error)
		}
	}
}

// TestSessionEviction fills the store past MaxSessions and checks that
// the least-recently-used idle session is evicted to make room.
func TestSessionEviction(t *testing.T) {
	s, ts := testService(t, Config{Workers: 1, MaxSessions: 2})
	a := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})
	b := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})

	// Touch a so b becomes the LRU candidate.
	if status, _ := postSession(t, ts.URL, "/v1/session/"+a, SessionSolveRequest{Seq: 1}); status != result.StatusOK {
		t.Fatalf("touch a: got %d", status)
	}
	c := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})

	if status, _ := postSession(t, ts.URL, "/v1/session/"+b, SessionSolveRequest{Seq: 1}); status != http.StatusNotFound {
		t.Fatalf("evicted session must 404, got %d", status)
	}
	for _, id := range []string{a, c} {
		if status, _ := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 2, Ops: nil}); status == http.StatusNotFound {
			t.Fatalf("survivor %s was evicted", id)
		}
	}
	st := s.Snapshot().Sessions
	if st.Live != 2 || st.Created != 3 || st.Evicted != 1 {
		t.Fatalf("snapshot: %+v, want live=2 created=3 evicted=1", st)
	}
}

// TestSessionTTL: an idle session past the TTL is reaped in the
// background and its id answers 404.
func TestSessionTTL(t *testing.T) {
	s, ts := testService(t, Config{Workers: 1, SessionTTL: 60 * time.Millisecond})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})

	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{Seq: 1})
		if status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not reaped within 5s of a 60ms TTL")
		}
		// Polling bumps lastUsed, so back off past the TTL between probes.
		time.Sleep(150 * time.Millisecond)
	}
	if st := s.Snapshot().Sessions; st.Expired != 1 || st.Live != 0 {
		t.Fatalf("snapshot: %+v, want expired=1 live=0", st)
	}
}

// TestSessionDrain: Drain closes every live session and subsequent
// session traffic sheds with 503.
func TestSessionDrain(t *testing.T) {
	s, ts := testService(t, Config{Workers: 1})
	mustCreate(t, ts.URL, SessionRequest{Formula: tinyTrue})
	mustCreate(t, ts.URL, SessionRequest{Formula: tinyFalse})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.Snapshot().Sessions; st.Live != 0 || st.Closed != 2 {
		t.Fatalf("snapshot after drain: %+v, want live=0 closed=2", st)
	}
	if status, resp := postSession(t, ts.URL, "/v1/session", SessionRequest{Formula: tinyTrue}); status != result.StatusUnavailable || resp.Shed != ShedDraining.String() {
		t.Fatalf("create while drained: got %d shed=%q, want 503 draining", status, resp.Shed)
	}
}

// TestSessionLearnedSurvival checks the point of the whole API at the
// HTTP layer: the FALSE is derived inside a frame, the frame pops, and the
// re-solve rides the retained learned clauses and reports a near-zero
// per-call work delta. (A FALSE derived below the frame would outlive the
// pop and cost nothing at all, which would make the check vacuous.)
func TestSessionLearnedSurvival(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: phpQDIMACS(4)})

	status, first := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 1, Ops: []SessionOp{{Op: "push"}}})
	if status != result.StatusOK || first.Verdict != "FALSE" || first.Depth != 1 {
		t.Fatalf("seq 1: got %d %q depth=%d", status, first.Verdict, first.Depth)
	}
	if first.Stats.Conflicts == 0 {
		t.Fatal("php(5,4) must conflict; per-call stats delta looks broken")
	}
	status, again := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "pop"}}})
	if status != result.StatusOK || again.Verdict != "FALSE" || again.Depth != 0 {
		t.Fatalf("seq 2: got %d %q depth=%d", status, again.Verdict, again.Depth)
	}
	if again.Stats.Conflicts == 0 {
		t.Fatal("re-solve did no conflict: the pop kept the FALSE derived inside the popped frame")
	}
	if again.Stats.Conflicts*4 >= first.Stats.Conflicts {
		t.Fatalf("re-solve did %d conflicts vs first %d; learned clauses did not survive",
			again.Stats.Conflicts, first.Stats.Conflicts)
	}
}

// TestSessionWitnessAfterPop: a pop unwinds the search state a cached TRUE
// was reached in, so a witness requested after it must be absent or
// satisfy the formula. The formula needs a decision, so a witness read off
// the unwound trail would set x1 and x2 both true.
func TestSessionWitnessAfterPop(t *testing.T) {
	const formula = "p cnf 3 2\ne 1 2 3 0\n1 2 0\n-1 -2 0\n"
	satisfies := func(wit []int, clauses ...[]int) bool {
		val := map[int]bool{}
		for _, l := range wit {
			val[l] = true
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				ok = ok || val[l]
			}
			if !ok {
				return false
			}
		}
		return true
	}
	_, ts := testService(t, Config{Workers: 1})
	id := mustCreate(t, ts.URL, SessionRequest{Formula: formula})

	status, resp := postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 1, Ops: []SessionOp{{Op: "push"}, {Op: "assume", Lits: []int{3}}}, Witness: true})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 1 {
		t.Fatalf("seq 1: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	if !satisfies(resp.Witness, []int{1, 2}, []int{-1, -2}, []int{3}) {
		t.Fatalf("seq 1: witness %v does not satisfy the formula under x3", resp.Witness)
	}
	status, resp = postSession(t, ts.URL, "/v1/session/"+id, SessionSolveRequest{
		Seq: 2, Ops: []SessionOp{{Op: "pop"}}, Witness: true})
	if status != result.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 2: got %d %q depth=%d error=%q", status, resp.Verdict, resp.Depth, resp.Error)
	}
	if len(resp.Witness) > 0 && !satisfies(resp.Witness, []int{1, 2}, []int{-1, -2}) {
		t.Fatalf("seq 2: witness %v after pop does not satisfy the formula", resp.Witness)
	}
}
