package gate

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qdimacs"
	"repro/internal/result"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// Config tunes a Gate. Backends is required; everything else has safe
// defaults.
type Config struct {
	// Backends lists the qbfd base URLs (e.g. "http://127.0.0.1:8080").
	Backends []string
	// Pool tunes health checking of the backends.
	Pool PoolConfig
	// HedgeDelay is the floor on the hedging delay: a hedged second
	// request is fired after max(HedgeDelay, observed p95 latency) if the
	// primary has not answered (0 = 30ms). DisableHedge turns hedging off.
	HedgeDelay   time.Duration
	DisableHedge bool
	// MaxAttempts caps how many distinct backends one request may try,
	// hedge included (0 = every routable backend).
	MaxAttempts int
	// CacheEntries bounds the canonical-form verdict cache (0 = 4096).
	CacheEntries int
	// MaxBody caps the request body in bytes (0 = 8 MiB), mirroring qbfd.
	MaxBody int64
	// RetryAfter is the hint sent with gate-originated 503s (0 = 1s).
	RetryAfter time.Duration
	// Tracer, when non-nil, receives route/hedge/cachehit events.
	Tracer *telemetry.Tracer
	// HTTPClient overrides the transport used for probes and proxied
	// solves (nil = a dedicated client with sane pooling).
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// Gate is the front tier. Construct with New, mount Handler, and call
// Stop on shutdown (after draining the HTTP server, so in-flight proxied
// requests finish first).
type Gate struct {
	cfg   Config
	pool  *pool
	ring  *ring
	cache *verdictCache
	lat   *latencyWindow

	fmu     sync.Mutex
	flights map[string]*flight

	requests  atomic.Int64
	routed    atomic.Int64
	failovers atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	coalesced atomic.Int64
	outage    atomic.Int64 // 503s for lack of any routable backend
	stopping  atomic.Bool
}

// flight is one in-progress solve for a canonical key; concurrent
// requests for the same key (rename variants included) wait for it
// instead of multiplying identical work on the backends.
type flight struct {
	done chan struct{}
	resp server.SolveResponse
	ok   bool // resp is a decided 200, safe to share
}

// New builds a Gate over the configured backends and starts their probe
// loops.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errNoBackends
	}
	clients := make([]*client.Client, len(cfg.Backends))
	for i, u := range cfg.Backends {
		// One attempt per call: the gate owns retries, failover, and
		// hedging; a client-level retry loop underneath would double them.
		clients[i] = client.New(u, cfg.HTTPClient, client.Policy{MaxAttempts: 1})
	}
	g := &Gate{
		cfg:     cfg,
		ring:    newRing(len(cfg.Backends)),
		cache:   newVerdictCache(cfg.CacheEntries),
		lat:     &latencyWindow{},
		flights: map[string]*flight{},
	}
	g.pool = newPool(cfg.Backends, cfg.Pool, cfg.HTTPClient, clients)
	return g, nil
}

type gateError string

func (e gateError) Error() string { return string(e) }

const errNoBackends = gateError("gate: at least one backend URL is required")

// Stop flips readiness, halts the probe loops, and waits for them. Call
// after the HTTP server has drained so proxied requests are not cut off.
func (g *Gate) Stop() {
	g.stopping.Store(true)
	g.pool.Stop()
}

// Handler returns the gate mux:
//
//	POST /solve     canonicalize → cache → route/hedge → respond
//	POST /v1/solve  alias of /solve
//	GET  /healthz   liveness
//	GET  /readyz    readiness: 503 once Stop has begun
//	GET  /statusz   JSON snapshot: backend states, cache, hedging
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", g.handleSolve)
	mux.HandleFunc("/v1/solve", g.handleSolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n") //nolint:errcheck // probe body is best-effort
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if g.stopping.Load() {
			w.WriteHeader(result.StatusUnavailable)
			io.WriteString(w, "stopping\n") //nolint:errcheck // probe body is best-effort
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n") //nolint:errcheck // probe body is best-effort
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(g.Snapshot()) //nolint:errcheck // the client may have gone away
	})
	return mux
}

func (g *Gate) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, server.SolveResponse{Error: "POST a SolveRequest to /solve"})
		return
	}
	g.requests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBody+1))
	if err != nil {
		writeJSON(w, result.StatusBadRequest, server.SolveResponse{Error: "reading body: " + err.Error()})
		return
	}
	if int64(len(body)) > g.cfg.MaxBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, server.SolveResponse{
			Error: "body exceeds " + strconv.FormatInt(g.cfg.MaxBody, 10) + " bytes"})
		return
	}
	req, err := server.ParseSolveRequest(body)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, server.SolveResponse{Error: err.Error()})
		return
	}
	// The backends' own mode/strategy contract: a request they would 400
	// is rejected here, before it reaches the ring or the cache key space.
	eng, err := server.ParseEngine(req.Mode, req.Strategy)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, server.SolveResponse{Error: err.Error()})
		return
	}
	q, err := qdimacs.ReadString(req.Formula)
	if err != nil {
		writeJSON(w, result.StatusBadRequest, server.SolveResponse{Error: "parsing formula: " + err.Error()})
		return
	}
	key := Key(q, eng.Mode, eng.Strategy)

	// A witness is named in the request's own variables; a cached verdict
	// from a rename variant cannot answer it, so witness requests bypass
	// the cache (and the flight coalescing that shares cached results).
	cacheable := !req.Witness
	if cacheable {
		if resp, ok := g.cache.get(key); ok {
			g.emit(telemetry.KindCacheHit, 1, int64(g.cache.len()))
			writeJSON(w, result.StatusOK, resp)
			return
		}
		g.emit(telemetry.KindCacheHit, 0, int64(g.cache.len()))
	}

	cands := g.pool.candidates(g.ring.order(key))
	if len(cands) == 0 {
		g.outage.Add(1)
		g.writeUnavailable(w, "gate-no-backends", "no routable backend (all ejected or none configured)")
		return
	}

	resp, status := g.solveOrJoin(r.Context(), key, cacheable, *req, cands)
	if result.StatusRetryable(status) {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(g.cfg.RetryAfter/time.Second)+1, 10))
	}
	writeJSON(w, status, resp)
}

// writeUnavailable is the degradation response: 503 with a Retry-After
// hint, the same shape qbfd uses for shed load.
func (g *Gate) writeUnavailable(w http.ResponseWriter, shed, msg string) {
	w.Header().Set("Retry-After", strconv.FormatInt(int64(g.cfg.RetryAfter/time.Second)+1, 10))
	writeJSON(w, result.StatusUnavailable, server.SolveResponse{Shed: shed, Error: "load shed: " + msg})
}

func writeJSON(w http.ResponseWriter, status int, resp server.SolveResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(resp) //nolint:errcheck // the client may have gone away; nothing to do
}

// solveOrJoin coalesces concurrent cacheable requests for one canonical
// key onto a single backend solve. The first request becomes the flight
// leader and solves; followers wait and, when the leader lands a decided
// 200, are served from the freshly filled cache entry. A failed leader
// does not poison followers — each falls back to its own solve attempt.
func (g *Gate) solveOrJoin(ctx context.Context, key string, cacheable bool, req server.SolveRequest, cands []*backend) (server.SolveResponse, int) {
	if !cacheable {
		resp, status := g.solveVia(ctx, req, cands)
		return resp, status
	}
	g.fmu.Lock()
	if fl, ok := g.flights[key]; ok {
		g.fmu.Unlock()
		select {
		case <-fl.done:
			if fl.ok {
				g.coalesced.Add(1)
				resp := fl.resp
				resp.Source = server.SourceCache
				return resp, result.StatusOK
			}
		case <-ctx.Done():
			return server.SolveResponse{Stop: result.StopCancelled.String(), Error: "client went away while coalesced"}, result.StatusUnavailable
		}
		// The leader failed; solve independently rather than serializing
		// every follower behind repeated failures.
		return g.solveVia(ctx, req, cands)
	}
	fl := &flight{done: make(chan struct{})}
	g.flights[key] = fl
	g.fmu.Unlock()
	defer func() {
		g.fmu.Lock()
		delete(g.flights, key)
		g.fmu.Unlock()
		close(fl.done)
	}()

	resp, status := g.solveVia(ctx, req, cands)
	if status == result.StatusOK && decided(resp) {
		g.cache.put(key, resp)
		fl.resp = resp
		fl.resp.Witness = nil
		fl.ok = true
	}
	return resp, status
}

func decided(resp server.SolveResponse) bool {
	return resp.Verdict == result.True.String() || resp.Verdict == result.False.String()
}

// attemptOut is one backend attempt's outcome.
type attemptOut struct {
	b       *backend
	ordinal int
	hedged  bool // launched by the hedge timer, not failover
	out     client.Outcome
	err     error
	took    time.Duration
}

// solveVia runs one request against the candidate backends: the primary
// in ring order; a hedged second request after max(HedgeDelay, p95) if
// the primary is still out; immediate deterministic failover to the next
// candidate whenever an attempt comes back retryable (transport error,
// 429/503/504). The first final outcome wins and every other in-flight
// attempt is cancelled via its context. When every candidate fails
// retryably the last well-formed rejection is forwarded (503 when even
// that is missing), never a hang.
func (g *Gate) solveVia(ctx context.Context, req server.SolveRequest, cands []*backend) (server.SolveResponse, int) {
	limit := len(cands)
	if g.cfg.MaxAttempts > 0 && g.cfg.MaxAttempts < limit {
		limit = g.cfg.MaxAttempts
	}
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	resCh := make(chan attemptOut, limit)
	next := 0
	inflight := 0
	launch := func(hedged bool) {
		if next >= limit {
			return
		}
		b := cands[next]
		ordinal := next
		next++
		inflight++
		g.routed.Add(1)
		if ordinal > 0 && !hedged {
			g.failovers.Add(1)
		}
		g.emit(telemetry.KindRoute, int64(b.idx), int64(ordinal))
		b.mu.Lock()
		b.requests++
		b.mu.Unlock()
		go func() {
			start := time.Now()
			out, err := b.cl.Solve(actx, req)
			took := time.Since(start)
			// Passive health: a transport failure is evidence the backend
			// is gone; any well-formed HTTP response proves liveness (shed
			// and drain statuses included — /readyz probes handle those).
			// A failure caused by our own cancellation proves nothing.
			if err != nil {
				if actx.Err() == nil {
					b.recordFailure(g.pool.cfg, true)
				}
			} else {
				b.recordSuccess(g.pool.cfg)
			}
			resCh <- attemptOut{b: b, ordinal: ordinal, hedged: hedged, out: out, err: err, took: took}
		}()
	}
	launch(false)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if !g.cfg.DisableHedge && limit > 1 {
		hedgeTimer = time.NewTimer(g.hedgeDelay())
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	hedgeLaunched := false
	hedgeIdx := int64(-1)
	var lastRetryable *attemptOut
	for inflight > 0 {
		select {
		case r := <-resCh:
			inflight--
			if r.err == nil && !result.StatusRetryable(r.out.Status) {
				// Final outcome: verdicts, caller-budget stops, 400s, 500s.
				if hedgeLaunched {
					won := int64(0)
					if r.hedged {
						won = 1
						g.hedgeWins.Add(1)
					}
					g.hedges.Add(1)
					g.emit(telemetry.KindHedge, won, hedgeIdx)
				}
				if r.out.Status == result.StatusOK {
					g.lat.add(r.took)
				}
				cancelAll()
				return r.out.Resp, r.out.Status
			}
			if r.err == nil {
				saved := r
				lastRetryable = &saved
			}
			// Retryable: deterministic failover to the next ring node.
			launch(false)
		case <-hedgeC:
			hedgeC = nil
			if inflight > 0 && next < limit {
				hedgeIdx = int64(cands[next].idx)
				hedgeLaunched = true
				launch(true)
			}
		case <-ctx.Done():
			cancelAll()
			return server.SolveResponse{Stop: result.StopCancelled.String(), Error: "client went away"},
				result.StatusUnavailable
		}
	}
	if lastRetryable != nil {
		return lastRetryable.out.Resp, lastRetryable.out.Status
	}
	g.outage.Add(1)
	return server.SolveResponse{Shed: "gate-backends-unreachable",
		Error: "load shed: every candidate backend failed at the transport layer"}, result.StatusUnavailable
}

// hedgeDelay derives the hedging delay from observed latency: the p95 of
// recent successful solves, floored at the configured minimum so an
// all-fast workload does not hedge every single request.
func (g *Gate) hedgeDelay() time.Duration {
	d := g.lat.p95()
	if d < g.cfg.HedgeDelay {
		d = g.cfg.HedgeDelay
	}
	return d
}

func (g *Gate) emit(k telemetry.Kind, a, b int64) {
	g.cfg.Tracer.Emit(k, 0, 0, a, b)
}

// latencyWindow is a fixed-size ring of recent successful-solve latencies
// feeding the hedge delay.
type latencyWindow struct {
	mu      sync.Mutex
	samples [256]time.Duration
	n       int // total ever added
}

func (l *latencyWindow) add(d time.Duration) {
	l.mu.Lock()
	l.samples[l.n%len(l.samples)] = d
	l.n++
	l.mu.Unlock()
}

func (l *latencyWindow) p95() time.Duration {
	l.mu.Lock()
	count := l.n
	if count > len(l.samples) {
		count = len(l.samples)
	}
	buf := make([]time.Duration, count)
	copy(buf, l.samples[:count])
	l.mu.Unlock()
	if count == 0 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[count*95/100]
}

// BackendStats is one backend's snapshot row.
type BackendStats struct {
	URL        string `json:"url"`
	State      string `json:"state"`
	Requests   int64  `json:"requests"`
	Failures   int64  `json:"failures"`
	Probes     int64  `json:"probes"`
	ProbeFails int64  `json:"probe_fails"`
	Ejections  int64  `json:"ejections"`
}

// Stats is the gate's point-in-time snapshot (the /statusz payload).
type Stats struct {
	Requests     int64          `json:"requests"`
	Routed       int64          `json:"routed"`
	Failovers    int64          `json:"failovers"`
	Hedges       int64          `json:"hedges"`
	HedgeWins    int64          `json:"hedge_wins"`
	CacheHits    int64          `json:"cache_hits"`
	CacheMisses  int64          `json:"cache_misses"`
	CacheEntries int            `json:"cache_entries"`
	Coalesced    int64          `json:"coalesced"`
	Outage503    int64          `json:"outage_503"`
	Backends     []BackendStats `json:"backends"`
}

// Snapshot collects the gate counters and per-backend health.
func (g *Gate) Snapshot() Stats {
	hits, misses, entries := g.cache.stats()
	st := Stats{
		Requests:     g.requests.Load(),
		Routed:       g.routed.Load(),
		Failovers:    g.failovers.Load(),
		Hedges:       g.hedges.Load(),
		HedgeWins:    g.hedgeWins.Load(),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheEntries: entries,
		Coalesced:    g.coalesced.Load(),
		Outage503:    g.outage.Load(),
	}
	for _, b := range g.pool.backends {
		b.mu.Lock()
		st.Backends = append(st.Backends, BackendStats{
			URL: b.url, State: b.state.String(), Requests: b.requests, Failures: b.failures,
			Probes: b.probes, ProbeFails: b.probeFails, Ejections: b.ejections,
		})
		b.mu.Unlock()
	}
	return st
}
