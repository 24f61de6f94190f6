//go:build qbfdebug

// Chaos coverage for the front tier: three real qbfd servers behind
// misbehaving proxies (kill, hang, slow, flap), a storm of concurrent
// rename-variant requests, and a total-outage window. Run with -race;
// the assertions are:
//
//   - the gate answers every request with a documented status — transport
//     drops toward the client are zero, and shed responses stay within a
//     declared budget;
//   - every 200 verdict (live, hedged, failed-over, or cache-served)
//     agrees with a direct sequential solve of the same instance;
//   - concurrent rename variants of one formula coalesce onto one
//     canonical cache entry and hit it (cache hits > 0);
//   - during a total backend outage cached formulas keep answering and
//     uncacheable requests shed cleanly;
//   - no goroutines outlive the gate and its backends.
package gate

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/result"
	"repro/internal/server"
)

// chaos proxy modes.
const (
	chaosPass int32 = iota
	chaosSlow       // 20ms latency before forwarding
	chaosHang       // swallow the request until the client disconnects
	chaosKill       // cut the TCP connection mid-request
	chaosFlap       // alternate kill / pass per request
)

// chaosProxy fronts one backend and misbehaves on command, health
// endpoints included — so active probes see the same failures traffic
// does.
type chaosProxy struct {
	mode  atomic.Int32
	count atomic.Int64
	inner http.Handler
}

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := p.count.Add(1)
	switch p.mode.Load() {
	case chaosSlow:
		time.Sleep(20 * time.Millisecond)
	case chaosHang:
		// The body must be drained for the server to notice the
		// disconnect that ends the hang.
		drain(r)
		<-r.Context().Done()
		return
	case chaosKill:
		kill(w)
		return
	case chaosFlap:
		if n%2 == 0 {
			kill(w)
			return
		}
	}
	p.inner.ServeHTTP(w, r)
}

func drain(r *http.Request) {
	buf := make([]byte, 4096)
	for {
		if _, err := r.Body.Read(buf); err != nil {
			return
		}
	}
}

func kill(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close() //nolint:errcheck // deliberate mid-request kill
		}
	}
}

// renameVariant renders a rename variant of inst: a random bijection on
// its variables. Canonicalization must fold every variant onto the
// original's cache key.
func renameVariant(t *testing.T, inst oracleInstance, seed int64) string {
	t.Helper()
	maxVar := inst.q.MaxVar()
	if pm := inst.q.Prefix.MaxVar(); pm > maxVar {
		maxVar = pm
	}
	perm := qbf.IdentityPerm(maxVar)
	rng := rand.New(rand.NewSource(seed))
	for v := maxVar; v > 1; v-- {
		u := 1 + rng.Intn(v)
		perm[v], perm[u] = perm[u], perm[v]
	}
	text, err := qdimacs.WriteString(qbf.Rename(inst.q, perm))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestChaosGateStorm(t *testing.T) {
	pool := oraclePool(t, 6)
	baseGoroutines := runtime.NumGoroutine()

	// Three real solve servers, each behind a chaos proxy.
	var backends []*server.Server
	var proxies []*chaosProxy
	var fronts []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s := server.New(server.Config{Workers: 2, QueueDepth: 256, QueueTimeout: 10 * time.Second})
		p := &chaosProxy{inner: s.Handler()}
		ts := httptest.NewServer(p)
		backends = append(backends, s)
		proxies = append(proxies, p)
		fronts = append(fronts, ts)
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
	front := httptest.NewServer(g.Handler())

	// Prime the cache with instance 0 so the outage window below has a
	// cached verdict to serve.
	if status, resp, _ := postSolve(t, front.URL, server.SolveRequest{Formula: pool[0].text}); status != result.StatusOK ||
		resp.Verdict != pool[0].verdict.String() {
		t.Fatalf("prime solve: status=%d %+v", status, resp)
	}

	// The chaos timeline runs concurrently with the storm: backend 0 dies
	// and comes back, backend 1 hangs, backend 2 flaps, then everything
	// heals.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		step := func(d time.Duration) { time.Sleep(d) }
		step(5 * time.Millisecond)
		proxies[0].mode.Store(chaosKill)
		step(30 * time.Millisecond)
		proxies[1].mode.Store(chaosHang)
		proxies[2].mode.Store(chaosFlap)
		step(30 * time.Millisecond)
		proxies[0].mode.Store(chaosSlow)
		step(30 * time.Millisecond)
		proxies[1].mode.Store(chaosPass)
		proxies[2].mode.Store(chaosPass)
		proxies[0].mode.Store(chaosPass)
	}()

	const storm = 180
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	var decided, shed atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := pool[i%len(pool)]
			req := server.SolveRequest{Formula: inst.text}
			if i%3 != 0 {
				// Two thirds of the storm are rename variants: all of one
				// instance's variants share a canonical key, so concurrent
				// cache fills and hits must agree with the oracle.
				req.Formula = renameVariant(t, inst, int64(i))
			}
			if i%9 == 0 {
				req.Witness = true // uncacheable path under chaos
			}
			status, resp, _ := postSolve(t, front.URL, req)
			switch status {
			case result.StatusOK:
				decided.Add(1)
				if resp.Verdict != inst.verdict.String() {
					errs <- fmt.Errorf("request %d: verdict %q (source %q), oracle %v",
						i, resp.Verdict, resp.Source, inst.verdict)
				}
			case result.StatusUnavailable, result.StatusTooManyRequests:
				shed.Add(1)
				if resp.Shed == "" && resp.Stop != "cancelled" {
					errs <- fmt.Errorf("request %d: bare %d: %+v", i, status, resp)
				}
			default:
				errs <- fmt.Errorf("request %d: unexpected status %d: %+v", i, status, resp)
			}
		}(i)
	}
	wg.Wait()
	<-chaosDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if decided.Load() == 0 {
		t.Fatal("storm produced no verdicts at all")
	}
	// Shed budget: with three backends, failover and hedging must absorb
	// most of the chaos; a majority of shed answers means they did not.
	if s := shed.Load(); s > storm/2 {
		t.Fatalf("%d/%d requests shed; failover should have absorbed more", s, storm)
	}
	st := g.Snapshot()
	if st.CacheHits == 0 {
		t.Error("no cache hits despite concurrent rename variants")
	}
	t.Logf("storm: %d decided, %d shed; snapshot %+v", decided.Load(), shed.Load(), st)

	// Total outage: every backend dies. The primed formula (as a fresh
	// rename variant) must keep answering from the cache; an uncacheable
	// witness request must shed with a retry hint.
	for _, p := range proxies {
		p.mode.Store(chaosKill)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, b := range g.Snapshot().Backends {
			if b.State != "ejected" {
				return false
			}
		}
		return true
	})
	status, resp, _ := postSolve(t, front.URL, server.SolveRequest{Formula: renameVariant(t, pool[0], 999)})
	if status != result.StatusOK || resp.Source != server.SourceCache || resp.Verdict != pool[0].verdict.String() {
		t.Fatalf("outage cache serve: status=%d %+v", status, resp)
	}
	status, resp, hdr := postSolve(t, front.URL, server.SolveRequest{Formula: pool[0].text, Witness: true})
	if status != result.StatusUnavailable || resp.Shed == "" || hdr.Get("Retry-After") == "" {
		t.Fatalf("outage witness request: status=%d %+v", status, resp)
	}

	// Heal and recover: probes must re-promote every backend and live
	// solving must resume.
	for _, p := range proxies {
		p.mode.Store(chaosPass)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, b := range g.Snapshot().Backends {
			if b.State != "healthy" {
				return false
			}
		}
		return true
	})
	status, resp, _ = postSolve(t, front.URL, server.SolveRequest{Formula: pool[1].text, Witness: true})
	if status != result.StatusOK || resp.Verdict != pool[1].verdict.String() {
		t.Fatalf("post-recovery solve: status=%d %+v", status, resp)
	}

	// Teardown and goroutine hygiene.
	front.Close()
	g.Stop()
	for i, s := range backends {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain backend %d: %v", i, err)
		}
		cancel()
		fronts[i].Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseGoroutines+8 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseGoroutines)
}
