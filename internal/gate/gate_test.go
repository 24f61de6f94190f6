package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/result"
	"repro/internal/server"
	"repro/internal/server/client"
)

// stub is a fake qbfd backend: health endpoints that honor a failure flag,
// and a swappable /solve handler. When failing, /solve kills the TCP
// connection mid-request so the gate observes a transport error (the
// passive-health signal), not a well-formed rejection.
type stub struct {
	srv     *httptest.Server
	hits    atomic.Int64
	failing atomic.Bool
	solve   atomic.Value // http.HandlerFunc
}

func okTrue(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.SolveResponse{Verdict: result.True.String()}) //nolint:errcheck
}

func newStub(t *testing.T) *stub {
	t.Helper()
	s := &stub{}
	s.solve.Store(http.HandlerFunc(okTrue))
	health := func(w http.ResponseWriter, r *http.Request) {
		if s.failing.Load() {
			w.WriteHeader(result.StatusUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", health)
	mux.HandleFunc("/readyz", health)
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		if s.failing.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() //nolint:errcheck // deliberate mid-request kill
			}
			return
		}
		s.hits.Add(1)
		s.solve.Load().(http.HandlerFunc)(w, r)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// newGate builds a gate over the stubs with test-friendly defaults
// (hedging off, probes effectively disabled) and mounts it on an HTTP
// server. mutate tweaks the config before construction.
func newGate(t *testing.T, stubs []*stub, mutate func(*Config)) (*Gate, string) {
	t.Helper()
	cfg := Config{
		DisableHedge: true,
		Pool:         PoolConfig{ProbeInterval: time.Hour, Seed: 1},
	}
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.srv.URL)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(g.Stop)
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	return g, front.URL
}

func postSolve(t *testing.T, url string, req server.SolveRequest) (int, server.SolveResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

// formulaN yields distinct single-clause instances (distinct canonical
// keys) for spreading load across the ring.
func formulaN(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "p cnf %d 1\ne", n)
	for v := 1; v <= n; v++ {
		fmt.Fprintf(&sb, " %d", v)
	}
	sb.WriteString(" 0\n1 0\n")
	return sb.String()
}

func TestRoutingIsDeterministicAndRenameStable(t *testing.T) {
	stubs := []*stub{newStub(t), newStub(t), newStub(t)}
	_, url := newGate(t, stubs, nil)

	// Witness requests bypass the cache, so every send exercises routing.
	for i := 0; i < 5; i++ {
		status, _, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
		if status != result.StatusOK {
			t.Fatalf("status = %d", status)
		}
	}
	// The rename variant must land on the same backend (same canonical key).
	status, _, _ := postSolve(t, url, server.SolveRequest{Formula: baseRenamed, Witness: true})
	if status != result.StatusOK {
		t.Fatalf("variant status = %d", status)
	}
	served := 0
	for _, s := range stubs {
		if h := s.hits.Load(); h > 0 {
			served++
			if h != 6 {
				t.Errorf("owning backend saw %d hits, want all 6", h)
			}
		}
	}
	if served != 1 {
		t.Errorf("%d backends served traffic, want exactly 1", served)
	}
}

func TestFailoverToNextRingNode(t *testing.T) {
	stubs := []*stub{newStub(t), newStub(t)}
	g, url := newGate(t, stubs, nil)

	status, _, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusOK {
		t.Fatalf("warmup status = %d", status)
	}
	var primary, other *stub
	if stubs[0].hits.Load() > 0 {
		primary, other = stubs[0], stubs[1]
	} else {
		primary, other = stubs[1], stubs[0]
	}

	// The primary now sheds everything; the gate must fail over and still
	// deliver a verdict.
	primary.solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(result.StatusUnavailable)
		json.NewEncoder(w).Encode(server.SolveResponse{Shed: "queue-full"}) //nolint:errcheck
	}))
	status, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusOK || resp.Verdict != result.True.String() {
		t.Fatalf("failover: status=%d verdict=%q", status, resp.Verdict)
	}
	if other.hits.Load() == 0 {
		t.Error("secondary backend never tried")
	}
	if got := g.Snapshot().Failovers; got == 0 {
		t.Error("failover counter not incremented")
	}
}

func TestLastRetryableRejectionForwardedWithRetryAfter(t *testing.T) {
	stubs := []*stub{newStub(t), newStub(t)}
	_, url := newGate(t, stubs, nil)
	for _, s := range stubs {
		s.solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(result.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.SolveResponse{Shed: "queue-full"}) //nolint:errcheck
		}))
	}
	status, resp, hdr := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 forwarded", status)
	}
	if resp.Shed == "" {
		t.Error("shed reason lost in forwarding")
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("retryable forward missing Retry-After")
	}
}

func TestCacheHitAcrossRenameVariants(t *testing.T) {
	s := newStub(t)
	g, url := newGate(t, []*stub{s}, nil)

	status, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex})
	if status != result.StatusOK || resp.Source != "" {
		t.Fatalf("first solve: status=%d source=%q", status, resp.Source)
	}
	// The rename/clause-permute variant must be a cache hit: no new
	// backend traffic, response flagged as cache-sourced.
	status, resp, _ = postSolve(t, url, server.SolveRequest{Formula: baseRenamed})
	if status != result.StatusOK {
		t.Fatalf("variant status = %d", status)
	}
	if resp.Source != server.SourceCache {
		t.Errorf("variant source = %q, want %q", resp.Source, server.SourceCache)
	}
	if resp.Verdict != result.True.String() {
		t.Errorf("cached verdict = %q", resp.Verdict)
	}
	if h := s.hits.Load(); h != 1 {
		t.Errorf("backend hits = %d, want 1", h)
	}
	st := g.Snapshot()
	if st.CacheHits != 1 || st.CacheEntries != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestWitnessRequestsBypassCache(t *testing.T) {
	s := newStub(t)
	_, url := newGate(t, []*stub{s}, nil)
	postSolve(t, url, server.SolveRequest{Formula: basePrenex}) // fills cache
	status, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if resp.Source == server.SourceCache {
		t.Error("witness request served from cache; witnesses must come from a live solve")
	}
	if h := s.hits.Load(); h != 2 {
		t.Errorf("backend hits = %d, want 2 (witness must reach the backend)", h)
	}
}

func TestDegradationServesCacheAndShedsRest(t *testing.T) {
	s := newStub(t)
	g, url := newGate(t, []*stub{s}, func(cfg *Config) {
		cfg.Pool = PoolConfig{ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond,
			SuspectAfter: 1, EjectAfter: 2, RecoverAfter: 2, Seed: 1}
	})
	if status, _, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex}); status != result.StatusOK {
		t.Fatalf("warmup failed")
	}

	// Take the only backend down and wait for probes to eject it.
	s.failing.Store(true)
	waitFor(t, time.Second, func() bool {
		st := g.Snapshot()
		return st.Backends[0].State == "ejected"
	})

	// Total outage: the cached verdict keeps flowing, flagged as such…
	status, resp, _ := postSolve(t, url, server.SolveRequest{Formula: baseRenamed})
	if status != result.StatusOK || resp.Source != server.SourceCache {
		t.Fatalf("cached degradation: status=%d source=%q", status, resp.Source)
	}
	// …and anything uncacheable is shed with a retry hint, never hung.
	status, resp, hdr := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusUnavailable {
		t.Fatalf("uncacheable during outage: status = %d, want 503", status)
	}
	if resp.Shed == "" || hdr.Get("Retry-After") == "" {
		t.Errorf("outage 503 missing shed reason or Retry-After: %+v", resp)
	}

	// Recovery is hysteretic: once the backend heals, probes re-promote it
	// and traffic resumes.
	s.failing.Store(false)
	waitFor(t, time.Second, func() bool { return g.Snapshot().Backends[0].State == "healthy" })
	status, _, _ = postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusOK {
		t.Errorf("post-recovery status = %d", status)
	}
	if g.Snapshot().Backends[0].Ejections == 0 {
		t.Error("ejection not counted")
	}
}

func TestPassiveFailureDetection(t *testing.T) {
	// Probes are off (1h interval) in both subtests: only proxied-request
	// outcomes — transport kills on /solve — can demote a backend.
	t.Run("failover masks and demotes", func(t *testing.T) {
		dead, live := newStub(t), newStub(t)
		g, url := newGate(t, []*stub{dead, live}, func(cfg *Config) {
			cfg.Pool = PoolConfig{ProbeInterval: time.Hour, SuspectAfter: 1, EjectAfter: 4, Seed: 1}
		})
		dead.failing.Store(true)
		// Spread keys so the dead backend is primary for some of them;
		// every request must still succeed via failover.
		for i := 0; i < 12; i++ {
			status, _, _ := postSolve(t, url, server.SolveRequest{Formula: formulaN(i + 1), Witness: true})
			if status != result.StatusOK {
				t.Fatalf("request %d: status = %d (failover should mask the dead backend)", i, status)
			}
		}
		if st := g.Snapshot().Backends[0].State; st == "healthy" {
			t.Errorf("dead backend still healthy after passive transport failures")
		}
	})
	t.Run("sustained failures eject", func(t *testing.T) {
		dead := newStub(t)
		g, url := newGate(t, []*stub{dead}, func(cfg *Config) {
			cfg.Pool = PoolConfig{ProbeInterval: time.Hour, SuspectAfter: 1, EjectAfter: 2, Seed: 1}
		})
		dead.failing.Store(true)
		// As the only (then suspect) backend it keeps drawing traffic, so
		// passive evidence alone walks healthy → suspect → ejected; every
		// request gets a clean shed response, never a hang.
		for i := 0; i < 2; i++ {
			status, resp, hdr := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
			if status != result.StatusUnavailable || resp.Shed == "" || hdr.Get("Retry-After") == "" {
				t.Fatalf("request %d: status=%d shed=%q ra=%q", i, status, resp.Shed, hdr.Get("Retry-After"))
			}
		}
		if st := g.Snapshot().Backends[0].State; st != "ejected" {
			t.Fatalf("backend state = %s, want ejected from passive evidence alone", st)
		}
		// Ejected means unroutable: the gate now sheds before dialing.
		_, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
		if resp.Shed != "gate-no-backends" {
			t.Errorf("shed = %q, want gate-no-backends once ejected", resp.Shed)
		}
	})
}

func TestHedgeFiresAndCancelsLoser(t *testing.T) {
	a, b := newStub(t), newStub(t)
	var first atomic.Bool
	hungCancelled := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			// First arrival hangs until the gate cancels it (hedge won).
			// The body must be drained first: the net/http server only
			// detects a client disconnect once the request body is read.
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			<-r.Context().Done()
			close(hungCancelled)
			return
		}
		okTrue(w, r)
	})
	a.solve.Store(slow)
	b.solve.Store(slow)
	g, url := newGate(t, []*stub{a, b}, func(cfg *Config) {
		cfg.DisableHedge = false
		cfg.HedgeDelay = 5 * time.Millisecond
	})

	status, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex, Witness: true})
	if status != result.StatusOK || resp.Verdict != result.True.String() {
		t.Fatalf("hedged solve: status=%d verdict=%q", status, resp.Verdict)
	}
	st := g.Snapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
	select {
	case <-hungCancelled:
	case <-time.After(2 * time.Second):
		t.Error("losing attempt was never cancelled")
	}
}

func TestSingleflightCoalescesConcurrentVariants(t *testing.T) {
	s := newStub(t)
	arrived := make(chan struct{})
	release := make(chan struct{})
	s.solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-release
		okTrue(w, r)
	}))
	g, url := newGate(t, []*stub{s}, nil)

	leaderDone := make(chan server.SolveResponse, 1)
	go func() {
		_, resp, _ := postSolve(t, url, server.SolveRequest{Formula: basePrenex})
		leaderDone <- resp
	}()
	<-arrived // the leader's flight is registered before its backend call

	const followers = 7
	var wg sync.WaitGroup
	results := make([]server.SolveResponse, followers)
	statuses := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Alternate rename variants: same canonical key either way.
			f := basePrenex
			if i%2 == 1 {
				f = baseRenamed
			}
			statuses[i], results[i], _ = postSolve(t, url, server.SolveRequest{Formula: f})
		}(i)
	}
	// Give the followers time to join the flight, then let the leader go.
	waitFor(t, 2*time.Second, func() bool {
		g.fmu.Lock()
		defer g.fmu.Unlock()
		return len(g.flights) == 1
	})
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	<-leaderDone

	for i := 0; i < followers; i++ {
		if statuses[i] != result.StatusOK || results[i].Verdict != result.True.String() {
			t.Fatalf("follower %d: status=%d verdict=%q", i, statuses[i], results[i].Verdict)
		}
	}
	if h := s.hits.Load(); h != 1 {
		t.Errorf("backend hits = %d, want 1 (flight + cache must absorb the rest)", h)
	}
	st := g.Snapshot()
	if st.Coalesced+st.CacheHits != followers {
		t.Errorf("coalesced=%d cacheHits=%d, want them to cover all %d followers",
			st.Coalesced, st.CacheHits, followers)
	}
}

func TestBadRequestsRejectedAtTheEdge(t *testing.T) {
	s := newStub(t)
	g, url := newGate(t, []*stub{s}, nil)
	cases := []server.SolveRequest{
		{Formula: "p cnf 1 1\ne 1 0\n1 0\n", Mode: "nope"},
		{Formula: "p cnf 1 1\ne 1 0\n1 0\n", Mode: "portfolio"},
		{Formula: "p cnf 1 1\ne 1 0\n1 0\n", Mode: "po", Strategy: "eu-au"},
		{Formula: "p cnf 1 1\ne 1 0\n1 0\n", Mode: "to", Strategy: "bogus"},
		{Formula: "not a formula"},
		{Formula: "p cnf 1 1\ne 1000000000000000 0\n1000000000000000 0\n"}, // id beyond the input's bound
	}
	for i, req := range cases {
		status, resp, _ := postSolve(t, url, req)
		if status != result.StatusBadRequest || resp.Error == "" {
			t.Errorf("case %d: status=%d error=%q, want 400 with message", i, status, resp.Error)
		}
	}
	if h := s.hits.Load(); h != 0 {
		t.Errorf("invalid requests reached the backend %d times", h)
	}
	if st := g.Snapshot(); st.Routed != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("invalid requests were routed or reached the cache: %+v", st)
	}
}

// TestDrainBackendUnderLoad drains one of three real solve servers while
// a client storm runs through the gate. In-flight solves on the draining
// backend finish and new ones fail over, so no request fails at the
// transport level, every decided verdict matches the oracle, and the
// drain completes without forcing cancellation.
func TestDrainBackendUnderLoad(t *testing.T) {
	pool := oraclePool(t, 6)
	var backends []*server.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{Workers: 2, QueueDepth: 256, QueueTimeout: 10 * time.Second})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		backends = append(backends, s)
		urls = append(urls, ts.URL)
	}
	g, err := New(Config{
		Backends:   urls,
		HedgeDelay: 10 * time.Millisecond,
		Pool: PoolConfig{ProbeInterval: 50 * time.Millisecond, ProbeTimeout: 300 * time.Millisecond,
			SuspectAfter: 1, EjectAfter: 3, RecoverAfter: 1, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)

	const clients, perClient = 6, 20
	var (
		wg        sync.WaitGroup
		done      atomic.Int64
		startOnce sync.Once
		decided   atomic.Int64
	)
	drained := make(chan error, 1)
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(front.URL, nil, client.Policy{
				MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Seed: int64(c) + 1,
			})
			for i := 0; i < perClient; i++ {
				inst := pool[(c+i)%len(pool)]
				// Witness requests bypass the cache, so the backends stay
				// busy for the whole storm, drain included.
				req := server.SolveRequest{Formula: inst.text, Witness: i%2 == 0}
				out, err := cl.Solve(context.Background(), req)
				switch {
				case err != nil && out.Status == 0:
					errs <- fmt.Errorf("client %d request %d dropped: %v", c, i, err)
				case out.Decided():
					decided.Add(1)
					if out.Resp.Verdict != inst.verdict.String() {
						errs <- fmt.Errorf("client %d request %d: verdict %q (source %q), oracle %v",
							c, i, out.Resp.Verdict, out.Resp.Source, inst.verdict)
					}
				}
				// A third of the way in, backend 0 starts draining; this
				// client waits until it has, so the rest of the storm
				// runs against a draining backend.
				if done.Add(1) == clients*perClient/3 {
					startOnce.Do(func() {
						go func() {
							ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
							defer cancel()
							drained <- backends[0].Drain(ctx)
						}()
						for !backends[0].Draining() {
							time.Sleep(time.Millisecond)
						}
					})
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-drained; err != nil {
		t.Errorf("backend 0 drain was forced: %v", err)
	}
	if decided.Load() == 0 {
		t.Error("storm produced no verdicts")
	}
	for i, s := range backends[1:] {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain backend %d: %v", i+1, err)
		}
		cancel()
	}
	t.Logf("%d/%d decided; snapshot %+v", decided.Load(), clients*perClient, g.Snapshot())
}

// oracleInstance is one pool entry: the instance and its oracle verdict
// from an unbudgeted sequential solve.
type oracleInstance struct {
	q       *qbf.QBF
	text    string
	verdict core.Verdict
}

// oraclePool builds n small model-A instances with their oracle verdicts.
func oraclePool(t *testing.T, n int) []oracleInstance {
	t.Helper()
	pool := make([]oracleInstance, n)
	for i := range pool {
		q := randqbf.Prob(randqbf.ProbParams{
			Blocks: 2, BlockSize: 6, Clauses: 26, Length: 3, MaxUniversal: 1, Seed: int64(500 + i),
		})
		text, err := qdimacs.WriteString(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Solve(context.Background(), q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == core.Unknown {
			t.Fatalf("oracle could not decide instance %d", i)
		}
		pool[i] = oracleInstance{q: q, text: text, verdict: res.Verdict}
	}
	return pool
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", timeout)
}
