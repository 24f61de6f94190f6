// Command qbfd serves QBF solving over HTTP/JSON: a long-lived solver
// process with admission control, load shedding, per-request budget
// governance, panic quarantine with circuit breaking, and graceful
// drain. POST a JSON SolveRequest to /solve; probe liveness at /healthz
// and readiness at /readyz; read counters at /statusz.
//
// Sticky sessions expose incremental solving: POST a SessionRequest to
// /v1/session to pin a solver, then POST frame operations (push, pop,
// add, assume) plus a solve to /v1/session/<id> with a client sequence
// number, and DELETE the path to close. Learned clauses survive across
// calls under the frame-tagging rules, which is what makes a session
// ladder cheaper than re-solving from scratch. The store holds at most
// -max-sessions solvers (beyond that the least-recently-used idle
// session is evicted; 429 when all are busy) and reaps sessions idle
// longer than -session-ttl.
//
// Usage:
//
//	qbfd [flags]
//
// Budgets: each request may ask for time/node/memory budgets; the server
// clamps them to the -max-time/-max-nodes/-max-mem caps. Outcomes map to
// HTTP statuses the way the CLIs map exit codes: 200 for verdicts, 504
// timeout, 422 node limit, 507 memory limit, 503 cancelled/shed/drain,
// 500 contained panic, 429 queue full (with Retry-After).
//
// Durability: with -journal-dir set, every session mutation is written
// to a segmented write-ahead journal before it executes, under the
// -fsync policy (always, interval, or never). After a crash — SIGKILL,
// OOM, power loss — the next boot replays the journal: sessions come
// back with their frame stacks and sequence counters, torn tails are
// truncated at the first bad checksum, and clients that retry an
// in-flight call get a deterministic replay instead of a double
// execution. If the journal disk fails at runtime the daemon keeps
// serving in a visible degraded (non-durable) mode: /readyz stays 200
// with a "degraded:non-durable" marker and /statusz counts the append
// errors — durability is lost, traffic is not.
//
// Shutdown: SIGTERM or SIGINT starts a graceful drain — /readyz flips to
// 503, new and queued requests shed with 503, in-flight solves finish
// within -drain-timeout, after which they are cancelled cooperatively.
// Exit status 0 after a clean drain, 130 when the deadline forced
// cancellation, 1 on startup errors.
//
// Observability: -trace, -metrics-addr and -profile wire the same
// exporters as qbfsolve; server admission/shed/serve events ride in the
// trace alongside solver search events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "solver worker pool size (0 = NumCPU)")
	queue := flag.Int("queue", 64, "admission queue depth; beyond it requests are shed with 429")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "longest a request may wait for a worker before being shed with 503")
	maxTime := flag.Duration("max-time", 30*time.Second, "server-wide cap on per-request time budgets (0 = uncapped)")
	maxNodes := flag.Int64("max-nodes", 0, "server-wide cap on per-request decision budgets (0 = uncapped)")
	maxMem := flag.Int64("max-mem", 0, "server-wide cap on per-request learned-constraint memory budgets in MiB (0 = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight solves on SIGTERM before they are cancelled")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive contained panics that open a configuration's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
	maxSessions := flag.Int("max-sessions", 0, "sticky-session cap; beyond it the LRU idle session is evicted (0 = 64)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle sessions older than this are reaped (0 = 5m)")
	journalDir := flag.String("journal-dir", "", "session write-ahead journal directory; sessions are recovered from it on boot (empty = non-durable)")
	fsync := flag.String("fsync", "always", "journal durability policy: always (fsync per append), interval (background flush), never")
	tracePath := flag.String("trace", "", "write a JSONL event trace to FILE (summarize with `qbfstat trace FILE`)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar event counters and pprof on ADDR (e.g. localhost:6060)")
	profile := flag.String("profile", "", "capture CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	// A bad policy string is an operator typo, not a disk fault: fail fast
	// here instead of letting the server degrade to non-durable at boot.
	if _, err := journal.ParsePolicy(*fsync); err != nil {
		fail(err)
	}

	obs, err := telemetry.Setup(*tracePath, *metricsAddr, *profile)
	if err != nil {
		fail(err)
	}
	if obs.Addr != "" {
		fmt.Fprintf(os.Stderr, "qbfd: metrics and pprof at http://%s/debug/\n", obs.Addr)
	}

	srv := server.New(server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		QueueTimeout: *queueTimeout,
		Caps: server.Caps{
			MaxTime:  *maxTime,
			MaxNodes: *maxNodes,
			MaxMem:   *maxMem << 20,
		},
		Breaker: server.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		},
		MaxSessions:     *maxSessions,
		SessionTTL:      *sessionTTL,
		JournalDir:      *journalDir,
		JournalFsync:    *fsync,
		JournalOnAppend: chaosAppendHook(),
		Tracer:          obs.Tracer,
	})
	if *journalDir != "" {
		js := srv.Snapshot().Journal
		switch {
		case js.Degraded:
			fmt.Fprintf(os.Stderr, "qbfd: journal: DEGRADED (non-durable) at %s\n", *journalDir)
		default:
			fmt.Fprintf(os.Stderr, "qbfd: journal: recovered %d sessions (%d records) from %s\n",
				js.RecoveredSessions, js.RecoveredRecords, *journalDir)
		}
	}

	// The signal handler goes in before the listening line announces the
	// daemon: a SIGTERM sent as soon as the port is known must drain, not
	// kill the process under the default disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The listening line goes to stderr so scripts (and the golden CLI
	// tests) can discover the bound port when -addr uses port 0, without
	// disturbing any future stdout protocol.
	fmt.Fprintf(os.Stderr, "qbfd: listening on %s (workers=%d queue=%d queue-timeout=%v drain-timeout=%v)\n",
		ln.Addr(), effectiveWorkers(*workers), *queue, *queueTimeout, *drainTimeout)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		finish(obs)
		fail(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "qbfd: %v received, draining (timeout %v)\n", s, *drainTimeout)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	hs.Close() //nolint:errcheck // drain already resolved every request
	finish(obs)
	if errors.Is(drainErr, server.ErrDrainForced) {
		fmt.Fprintln(os.Stderr, "qbfd: drain deadline exceeded; in-flight solves were cancelled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "qbfd: drained cleanly")
}

// effectiveWorkers mirrors the server's default so the startup line
// reports the real pool size.
func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return server.DefaultWorkers()
}

func finish(obs *telemetry.Observability) {
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "qbfd:", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfd:", err)
	os.Exit(1)
}
