package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// The CLI tests re-execute the test binary as qbfstat (TestMain dispatches
// to main when the marker variable is set), mirroring the qbfsolve harness.

func TestMain(m *testing.M) {
	if os.Getenv("QBFSTAT_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QBFSTAT_TEST_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec failed: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestTraceRoundTrip emits a known mix of events through the JSONL sink
// from two concurrent emitters sharing one tracer and checks that `qbfstat
// trace` replays exactly those counts: the emit side and the replay side
// agree on the wire format, and concurrent emission loses no event.
func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(f)
	tr := telemetry.New(sink, nil)
	counts := map[telemetry.Kind]int{
		telemetry.KindDecision: 7,
		telemetry.KindConflict: 3,
		telemetry.KindLearn:    3,
		telemetry.KindReduce:   2,
		telemetry.KindStop:     1,
	}
	const emitters = 2
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for kind, n := range counts {
				for i := 0; i < n; i++ {
					tr.Emit(kind, i, 1+i%3, int64(i), 0)
				}
			}
		}()
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runCLI(t, "trace", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	total := 0
	for kind, n := range counts {
		total += emitters * n
		want := fmt.Sprintf("%-10s %d", kind, emitters*n)
		if !strings.Contains(stdout, want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout)
		}
	}
	if want := fmt.Sprintf("events=%d span=", total); !strings.Contains(stdout, want) {
		t.Errorf("summary lacks %q:\n%s", want, stdout)
	}
}

// TestTraceRejectsCorruptInput: a truncated line must fail with a
// positioned error, not a silently wrong summary.
func TestTraceRejectsCorruptInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	content := `{"t":1,"ev":"decision","w":0,"g":0,"lvl":1,"d":1,"a":5,"b":0}` + "\n" + `{"t":2,"ev":"dec`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "trace", path)
	if code != 1 || !strings.Contains(stderr, "line 2") {
		t.Fatalf("exit %d stderr %q, want exit 1 naming line 2", code, stderr)
	}
}

// TestStructuralReportStillWorks guards the subcommand dispatch: plain
// instance statistics must be unaffected by the trace subcommand.
func TestStructuralReportStillWorks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.qdimacs")
	qdimacs := "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 2 0\n"
	if err := os.WriteFile(path, []byte(qdimacs), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, path)
	if code != 0 || !strings.Contains(stdout, "input: vars=2") {
		t.Fatalf("exit %d stdout %q stderr %q, want a structural report", code, stdout, stderr)
	}
}

// TestTraceSummarizesGateKinds: route/hedge/cachehit events from a qbfgate
// trace produce the per-backend counts, hedge win rate, and cache hit
// ratio lines — golden strings, so the report format cannot drift
// silently.
func TestTraceSummarizesGateKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gate.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(f)
	tr := telemetry.New(sink, nil)
	// 5 routes to backend 0 (one a failover), 3 to backend 1; 2 hedges
	// resolved, 1 won by the hedge; 4 cache lookups, 3 hits.
	for i := 0; i < 4; i++ {
		tr.Emit(telemetry.KindRoute, 0, 0, 0, 0)
	}
	tr.Emit(telemetry.KindRoute, 0, 0, 0, 1) // failover attempt to backend 0
	for i := 0; i < 3; i++ {
		tr.Emit(telemetry.KindRoute, 0, 0, 1, 0)
	}
	tr.Emit(telemetry.KindHedge, 0, 0, 1, 1)
	tr.Emit(telemetry.KindHedge, 0, 0, 0, 1)
	tr.Emit(telemetry.KindCacheHit, 0, 0, 1, 1)
	tr.Emit(telemetry.KindCacheHit, 0, 0, 1, 2)
	tr.Emit(telemetry.KindCacheHit, 0, 0, 1, 3)
	tr.Emit(telemetry.KindCacheHit, 0, 0, 0, 3)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := runCLI(t, "trace", path)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{
		"backend 0   5",
		"backend 1   3",
		"failovers  1",
		"hedge-wins 1/2 (50.0%)",
		"cache-hits 3/4 (75.0%)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout)
		}
	}
}
