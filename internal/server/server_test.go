package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/result"
)

// phpQDIMACS renders the pigeonhole principle PHP(n+1, n) in QDIMACS: n+1
// pigeons into n holes, purely existential and unsatisfiable, with search
// effort that grows fast in n. The servers' budget tests lean on it to get
// a solve that reliably outlives a tiny budget.
func phpQDIMACS(n int) string {
	pigeons := n + 1
	v := func(p, h int) int { return (p-1)*n + h }
	var clauses []string
	for i := 1; i <= pigeons; i++ {
		var row strings.Builder
		for h := 1; h <= n; h++ {
			fmt.Fprintf(&row, "%d ", v(i, h))
		}
		row.WriteString("0")
		clauses = append(clauses, row.String())
	}
	for h := 1; h <= n; h++ {
		for i := 1; i <= pigeons; i++ {
			for j := i + 1; j <= pigeons; j++ {
				clauses = append(clauses, fmt.Sprintf("%d %d 0", -v(i, h), -v(j, h)))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\ne ", pigeons*n, len(clauses))
	for i := 1; i <= pigeons*n; i++ {
		fmt.Fprintf(&b, "%d ", i)
	}
	b.WriteString("0\n")
	for _, c := range clauses {
		b.WriteString(c)
		b.WriteString("\n")
	}
	return b.String()
}

// testService spins up a Server behind httptest and tears both down.
func testService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

// postSolve posts a SolveRequest and decodes the response.
func postSolve(t *testing.T, url string, req SolveRequest) (int, SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
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

func TestServeVerdicts(t *testing.T) {
	_, ts := testService(t, Config{Workers: 2})
	cases := []struct {
		name    string
		req     SolveRequest
		verdict string
	}{
		{"po true", SolveRequest{Formula: tinyTrue}, "TRUE"},
		{"po false", SolveRequest{Formula: tinyFalse}, "FALSE"},
		{"to true", SolveRequest{Formula: tinyTrue, Mode: "to"}, "TRUE"},
		{"to tree", SolveRequest{Formula: tinyTree, Mode: "to", Strategy: "ed-au"}, "TRUE"},
		{"po tree", SolveRequest{Formula: tinyTree}, "TRUE"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, resp := postSolve(t, ts.URL, c.req)
			if status != result.StatusOK || resp.Verdict != c.verdict {
				t.Fatalf("got %d %q (stop=%q error=%q), want 200 %q",
					status, resp.Verdict, resp.Stop, resp.Error, c.verdict)
			}
			if resp.Stats == nil {
				t.Fatal("completed solve must report stats")
			}
		})
	}
}

func TestServeWitness(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	status, resp := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue, Witness: true})
	if status != result.StatusOK || resp.Verdict != "TRUE" {
		t.Fatalf("got %d %q", status, resp.Verdict)
	}
	want := map[int]bool{1: true, -2: true}
	if len(resp.Witness) != 2 || !want[resp.Witness[0]] || !want[resp.Witness[1]] {
		t.Fatalf("witness = %v, want [1 -2]", resp.Witness)
	}
}

func TestServeRejections(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1, MaxBody: 256})
	t.Run("method", func(t *testing.T) {
		hresp, err := http.Get(ts.URL + "/solve")
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /solve = %d, want 405", hresp.StatusCode)
		}
	})
	t.Run("bad json", func(t *testing.T) {
		hresp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader("{oops"))
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		var resp SolveResponse
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if hresp.StatusCode != result.StatusBadRequest || resp.Error == "" {
			t.Fatalf("got %d %+v, want 400 with error", hresp.StatusCode, resp)
		}
	})
	t.Run("bad formula", func(t *testing.T) {
		status, resp := postSolve(t, ts.URL, SolveRequest{Formula: "p cnf zz"})
		if status != result.StatusBadRequest || resp.Error == "" {
			t.Fatalf("got %d %+v, want 400", status, resp)
		}
	})
	t.Run("portfolio", func(t *testing.T) {
		status, resp := postSolve(t, ts.URL, SolveRequest{Formula: tinyFalse, Mode: "portfolio"})
		if status != result.StatusBadRequest || !strings.Contains(resp.Error, "unknown mode") {
			t.Fatalf("got %d %+v, want 400 unknown mode", status, resp)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		big := SolveRequest{Formula: phpQDIMACS(6)}
		body, _ := json.Marshal(big)
		hresp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("got %d, want 413", hresp.StatusCode)
		}
	})
}

func TestServeBudgetStops(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	t.Run("node limit is 422", func(t *testing.T) {
		status, resp := postSolve(t, ts.URL, SolveRequest{Formula: phpQDIMACS(8), MaxNodes: 1})
		if status != result.StatusUnprocessable || resp.Verdict != "UNKNOWN" || resp.Stop != "node-limit" {
			t.Fatalf("got %d %q stop=%q, want 422 UNKNOWN node-limit", status, resp.Verdict, resp.Stop)
		}
	})
	t.Run("timeout is 504", func(t *testing.T) {
		status, resp := postSolve(t, ts.URL, SolveRequest{Formula: phpQDIMACS(10), MaxTimeMS: 1})
		if status != result.StatusTimeout || resp.Stop != "timeout" {
			t.Fatalf("got %d stop=%q, want 504 timeout", status, resp.Stop)
		}
	})
	t.Run("server cap clamps an unlimited ask", func(t *testing.T) {
		// The request asks for no budget at all; the server cap must stop
		// the solve anyway.
		_, ts2 := testService(t, Config{Workers: 1, Caps: Caps{MaxNodes: 1}})
		status, resp := postSolve(t, ts2.URL, SolveRequest{Formula: phpQDIMACS(8)})
		if status != result.StatusUnprocessable || resp.Stop != "node-limit" {
			t.Fatalf("got %d stop=%q, want 422 node-limit", status, resp.Stop)
		}
	})
}

// gatedService builds a 1-worker server whose solver hook blocks until
// released, so tests can hold the worker busy deterministically.
func gatedService(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	cfg.testSolverHook = func(spec *solveSpec, s *core.Solver) {
		entered <- struct{}{}
		<-release
	}
	s, ts := testService(t, cfg)
	return s, ts, entered, release
}

func TestServeQueueFull(t *testing.T) {
	s, ts, entered, release := gatedService(t, Config{Workers: 1, QueueDepth: 1, QueueTimeout: time.Minute})
	done := make(chan int, 2)
	post := func() {
		status, _ := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
		done <- status
	}
	// First request occupies the lone worker (blocked in the hook)...
	go post()
	<-entered
	// ...second fills the one-deep queue...
	go post()
	waitFor(t, func() bool { return s.Snapshot().QueueDepth == 1 })
	// ...so the third must be shed with 429 + Retry-After.
	body, _ := json.Marshal(SolveRequest{Formula: tinyTrue})
	hresp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp SolveResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != result.StatusTooManyRequests || resp.Shed != "queue-full" {
		t.Fatalf("got %d shed=%q, want 429 queue-full", hresp.StatusCode, resp.Shed)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if st := <-done; st != result.StatusOK {
			t.Fatalf("admitted request finished %d, want 200", st)
		}
	}
}

func TestServeQueueDeadline(t *testing.T) {
	_, ts, entered, release := gatedService(t, Config{Workers: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond})
	first := make(chan int, 1)
	go func() {
		st, _ := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
		first <- st
	}()
	<-entered
	second := make(chan SolveResponse, 1)
	secondStatus := make(chan int, 1)
	go func() {
		st, resp := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
		secondStatus <- st
		second <- resp
	}()
	// Hold the worker past the queue deadline, then release: the queued
	// request must be shed unsolved.
	time.Sleep(60 * time.Millisecond)
	close(release)
	if st := <-secondStatus; st != result.StatusUnavailable {
		t.Fatalf("overdue queued request got %d, want 503", st)
	}
	if resp := <-second; resp.Shed != "queue-deadline" {
		t.Fatalf("shed = %q, want queue-deadline", resp.Shed)
	}
	if st := <-first; st != result.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", st)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := testService(t, Config{Workers: 1})
	get := func(path string) int {
		hresp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		return hresp.StatusCode
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz = %d", st)
	}
	if st := get("/readyz"); st != http.StatusOK {
		t.Fatalf("/readyz = %d", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if st := get("/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is not readiness)", st)
	}
	if st := get("/readyz"); st != result.StatusUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", st)
	}
	// New solve requests shed with 503/draining.
	status, resp := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
	if status != result.StatusUnavailable || resp.Shed != "draining" {
		t.Fatalf("post-drain solve: %d shed=%q, want 503 draining", status, resp.Shed)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	s, ts, entered, release := gatedService(t, Config{Workers: 1, QueueTimeout: time.Minute})
	got := make(chan int, 1)
	go func() {
		st, _ := postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
		got <- st
	}()
	<-entered
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.Draining)
	select {
	case err := <-drained:
		t.Fatalf("drain finished with request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := <-got; st != result.StatusOK {
		t.Fatalf("in-flight request during drain got %d, want 200", st)
	}
}

func TestDrainDeadlineForcesCancellation(t *testing.T) {
	s, ts, entered, release := gatedService(t, Config{Workers: 1, QueueTimeout: time.Minute})
	got := make(chan SolveResponse, 1)
	gotStatus := make(chan int, 1)
	go func() {
		// A hard instance with no budget: only cancellation can stop it.
		st, resp := postSolve(t, ts.URL, SolveRequest{Formula: phpQDIMACS(10)})
		gotStatus <- st
		got <- resp
	}()
	<-entered
	// Drain with an already-expired deadline: the server must force-cancel.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	waitFor(t, s.Draining)
	time.Sleep(20 * time.Millisecond) // let the drain loop hit forceCancel
	close(release)                    // the solver now starts — and sees a dead context
	if err := <-drained; err != ErrDrainForced {
		t.Fatalf("drain = %v, want ErrDrainForced", err)
	}
	if st := <-gotStatus; st != result.StatusUnavailable {
		t.Fatalf("cancelled solve got %d, want 503", st)
	}
	if resp := <-got; resp.Stop != "cancelled" {
		t.Fatalf("stop = %q, want cancelled", resp.Stop)
	}
}

func TestStatusz(t *testing.T) {
	_, ts := testService(t, Config{Workers: 1})
	postSolve(t, ts.URL, SolveRequest{Formula: tinyTrue})
	postSolve(t, ts.URL, SolveRequest{Formula: tinyFalse, Mode: "to"})
	hresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 2 || st.Completed != 2 || st.Panics != 0 || st.Draining {
		t.Fatalf("stats = %+v", st)
	}
	if st.Breakers["po"].State != "closed" || st.Breakers["to:eu-au"].State != "closed" {
		t.Fatalf("breakers = %+v", st.Breakers)
	}
	if len(st.Quarantined) != 0 {
		t.Fatalf("quarantined = %v, want none", st.Quarantined)
	}
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
