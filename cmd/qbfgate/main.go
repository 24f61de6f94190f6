// Command qbfgate fronts a fleet of qbfd backends with health-checked
// failover, hedged retries, and a canonical-form verdict cache. POST a
// JSON SolveRequest to /solve (or /v1/solve); probe liveness at /healthz
// and readiness at /readyz; read routing/cache/backend counters at
// /statusz.
//
// Usage:
//
//	qbfgate -backends URL[,URL...] [flags]
//
// Routing: each request is canonicalized (variables renamed to first-use
// order, matrix sorted) and hashed; the hash picks a home backend on a
// consistent-hash ring, so rename and clause-order variants of one
// formula always land on the same backend and share one cache entry.
// Retryable outcomes (transport errors, 429/503/504) fail over to the
// next ring node; slow primaries are hedged with a second request after
// the observed p95 latency, first verdict wins.
//
// Degradation: decided verdicts are cached by canonical form. When every
// backend is unreachable, cached formulas keep answering (flagged with
// "source":"cache"); anything uncacheable is shed with 503 + Retry-After
// rather than left hanging.
//
// Shutdown: SIGTERM or SIGINT flips /readyz to 503 and stops the probe
// loops; in-flight proxied requests finish first. Exit status 0.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gate"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8081", "listen address (host:port; port 0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated qbfd base URLs (required)")
	hedgeDelay := flag.Duration("hedge-delay", 30*time.Millisecond, "floor on the hedging delay; the effective delay is max(this, observed p95 latency)")
	noHedge := flag.Bool("no-hedge", false, "disable hedged second requests")
	maxAttempts := flag.Int("max-attempts", 0, "max distinct backends tried per request, hedge included (0 = all)")
	cacheEntries := flag.Int("cache-entries", 4096, "canonical-form verdict cache capacity")
	probeInterval := flag.Duration("probe-interval", time.Second, "base period between health probes per backend (jittered ±25%)")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe round-trip timeout")
	suspectAfter := flag.Int("suspect-after", 2, "consecutive failures demoting a backend to suspect")
	ejectAfter := flag.Int("eject-after", 4, "consecutive failures ejecting a backend from routing")
	recoverAfter := flag.Int("recover-after", 2, "consecutive probe successes re-promoting a backend")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on gate-originated 503s")
	tracePath := flag.String("trace", "", "write a JSONL event trace to FILE (summarize with `qbfstat trace FILE`)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar event counters and pprof on ADDR (e.g. localhost:6060)")
	profile := flag.String("profile", "", "capture CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	urls := splitBackends(*backends)
	if len(urls) == 0 {
		fail(fmt.Errorf("-backends is required (comma-separated qbfd base URLs)"))
	}

	obs, err := telemetry.Setup(*tracePath, *metricsAddr, *profile)
	if err != nil {
		fail(err)
	}
	if obs.Addr != "" {
		fmt.Fprintf(os.Stderr, "qbfgate: metrics and pprof at http://%s/debug/\n", obs.Addr)
	}

	g, err := gate.New(gate.Config{
		Backends: urls,
		Pool: gate.PoolConfig{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			SuspectAfter:  *suspectAfter,
			EjectAfter:    *ejectAfter,
			RecoverAfter:  *recoverAfter,
		},
		HedgeDelay:   *hedgeDelay,
		DisableHedge: *noHedge,
		MaxAttempts:  *maxAttempts,
		CacheEntries: *cacheEntries,
		RetryAfter:   *retryAfter,
		Tracer:       obs.Tracer,
	})
	if err != nil {
		fail(err)
	}

	// The signal handler goes in before the listening line announces the
	// gate: a SIGTERM sent as soon as the port is known must shut down
	// cleanly, not kill the process under the default disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The listening line goes to stderr so scripts (and the golden CLI
	// tests) can discover the bound port when -addr uses port 0.
	fmt.Fprintf(os.Stderr, "qbfgate: listening on %s (backends=%d hedge=%v cache=%d)\n",
		ln.Addr(), len(urls), !*noHedge, *cacheEntries)

	hs := &http.Server{Handler: g.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		finish(obs)
		fail(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "qbfgate: %v received, shutting down\n", s)
	}

	g.Stop()
	hs.Close() //nolint:errcheck // proxied requests resolve via backend contexts
	finish(obs)
	fmt.Fprintln(os.Stderr, "qbfgate: stopped")
}

// splitBackends parses the -backends list, tolerating blanks and spaces.
func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

func finish(obs *telemetry.Observability) {
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "qbfgate:", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfgate:", err)
	os.Exit(1)
}
