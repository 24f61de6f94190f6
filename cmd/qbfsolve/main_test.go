package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/result"
	"repro/internal/telemetry"
)

// The CLI tests run qbfsolve end to end: the test binary re-executes itself
// as the real command (TestMain dispatches to main when the marker variable
// is set), so exit codes, stdout/stderr framing, and signal handling are
// all exercised exactly as a shell would see them — no in-process shortcuts.

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestMain(m *testing.M) {
	if os.Getenv("QBFSOLVE_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as qbfsolve with the given arguments
// and returns its output and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QBFSOLVE_TEST_RUN_MAIN=1")
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

// hardInstanceFile writes an instance the default configuration needs
// thousands of decisions for, so limit and signal paths have time to fire.
// blockSize 24 gives tens of milliseconds of work; 32 gives seconds.
func hardInstanceFile(t *testing.T, blockSize int, seed int64) string {
	t.Helper()
	q := randqbf.Prob(randqbf.ProbParams{
		Blocks: 3, BlockSize: blockSize, Clauses: 21 * blockSize, Length: 5, MaxUniversal: 1, Seed: seed,
	})
	path := filepath.Join(t.TempDir(), "hard.qdimacs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := qdimacs.Write(f, q); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIVerdictExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		out  string
		code int
	}{
		{[]string{"testdata/true.qdimacs"}, "TRUE", 10},
		{[]string{"testdata/false.qdimacs"}, "FALSE", 20},
		{[]string{"testdata/tree.qtree"}, "TRUE", 10},
		{[]string{"-mode", "to", "testdata/tree.qtree"}, "TRUE", 10},
		{[]string{"-mode", "to", "-strategy", "ed-ad", "testdata/tree.qtree"}, "TRUE", 10},
		{[]string{"-miniscope", "testdata/true.qdimacs"}, "TRUE", 10},
	}
	for _, c := range cases {
		stdout, stderr, code := runCLI(t, c.args...)
		if strings.TrimSpace(stdout) != c.out || code != c.code {
			t.Errorf("%v: got (%q, exit %d), want (%q, exit %d)\nstderr: %s",
				c.args, strings.TrimSpace(stdout), code, c.out, c.code, stderr)
		}
	}
}

func TestCLIWitness(t *testing.T) {
	stdout, _, code := runCLI(t, "-witness", "testdata/true.qdimacs")
	if code != 10 || !strings.Contains(stdout, "v 1 0") {
		t.Fatalf("witness output %q (exit %d), want a 'v 1 0' model line", stdout, code)
	}
}

func TestCLIErrorExit(t *testing.T) {
	for _, args := range [][]string{
		{"testdata/no-such-file.qdimacs"},
		{"-mode", "bogus", "testdata/true.qdimacs"},
		{"-mode", "to", "-strategy", "bogus", "testdata/tree.qtree"},
	} {
		_, stderr, code := runCLI(t, args...)
		if code != 1 || !strings.Contains(stderr, "qbfsolve:") {
			t.Errorf("%v: exit %d stderr %q, want exit 1 with a qbfsolve: message", args, code, stderr)
		}
	}
}

// TestCLINodeLimit: the decision budget must surface as exit 31 with the
// node-limit stop reason.
func TestCLINodeLimit(t *testing.T) {
	path := hardInstanceFile(t, 24, 2)
	stdout, stderr, code := runCLI(t, "-nodes", "50", path)
	if code != 31 || strings.TrimSpace(stdout) != "UNKNOWN" {
		t.Fatalf("got (%q, exit %d), want (UNKNOWN, exit 31)\nstderr: %s", stdout, code, stderr)
	}
	if !strings.Contains(stderr, "stopped: node-limit") {
		t.Fatalf("stderr %q lacks the node-limit stop reason", stderr)
	}
}

// TestCLITimeout: an expired time budget must surface as exit 30. The
// instance needs well over the budget.
func TestCLITimeout(t *testing.T) {
	path := hardInstanceFile(t, 24, 15)
	stdout, stderr, code := runCLI(t, "-timeout", "5ms", path)
	if code == 10 || code == 20 {
		t.Skip("instance solved within the budget on this machine")
	}
	if code != 30 || strings.TrimSpace(stdout) != "UNKNOWN" || !strings.Contains(stderr, "stopped: timeout") {
		t.Fatalf("got (%q, exit %d, stderr %q), want (UNKNOWN, exit 30, timeout stop)",
			strings.TrimSpace(stdout), code, stderr)
	}
}

// TestCLIInterrupt: SIGINT must wind the search down at the next fixpoint
// and exit 33 (cancelled). The instance takes 2.5–3 s (2-core x86-64), far
// beyond the 100 ms before the signal.
func TestCLIInterrupt(t *testing.T) {
	path := hardInstanceFile(t, 40, 4)
	cmd := exec.Command(os.Args[0], path)
	cmd.Env = append(os.Environ(), "QBFSOLVE_TEST_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	_ = cmd.Process.Signal(os.Interrupt)
	err := cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	}
	if code == 10 || code == 20 {
		t.Skip("instance solved before the signal arrived")
	}
	if code != 33 || !strings.Contains(errb.String(), "stopped: cancelled") {
		t.Fatalf("exit %d stdout %q stderr %q, want exit 33 with cancelled stop",
			code, out.String(), errb.String())
	}
}

// TestExitCodeMapping pins the full documented mapping, including the codes
// that are impractical to trigger from a real process run (mem-limit needs
// a multi-MiB learned database; a contained panic needs a fault build).
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		v    core.Verdict
		stop core.StopReason
		want int
	}{
		{core.True, core.StopNone, 10},
		{core.False, core.StopNone, 20},
		{core.True, core.StopTimeout, 10}, // verdict wins over a stale stop
		{core.Unknown, core.StopTimeout, 30},
		{core.Unknown, core.StopNodeLimit, 31},
		{core.Unknown, core.StopMemLimit, 32},
		{core.Unknown, core.StopCancelled, 33},
		{core.Unknown, core.StopPanicked, 34},
		{core.Unknown, core.StopNone, 1},
	}
	for _, c := range cases {
		if got := result.ExitCode(c.v, c.stop); got != c.want {
			t.Errorf("ExitCode(%v, %v) = %d, want %d", c.v, c.stop, got, c.want)
		}
	}
}

var timeField = regexp.MustCompile(`time=[^ \n]+`)

// checkGolden compares got (with wall-clock fields masked) against the
// golden file, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	norm := timeField.ReplaceAllString(got, "time=<T>")
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(norm), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if norm != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", name, norm, want)
	}
}

// TestCLIGoldenStats pins the exact -stats output framing. The engine is
// fully reproducible on this input once wall-clock fields are masked, so
// any drift in the search (decision counts, learned constraints) or in the
// report format shows up as a golden diff.
func TestCLIGoldenStats(t *testing.T) {
	_, stderr, code := runCLI(t, "-stats", "testdata/false.qdimacs")
	if code != 20 {
		t.Fatalf("exit %d, want 20", code)
	}
	checkGolden(t, "stats_false.golden", stderr)
}

// TestCLITraceJSONL runs -trace end to end and cross-checks the JSONL
// artifact against the -stats counters: every required event kind is
// present and per-kind counts match the search statistics.
func TestCLITraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	_, stderr, code := runCLI(t, "-stats", "-trace", path, "testdata/false.qdimacs")
	if code != 20 {
		t.Fatalf("exit %d, want 20\nstderr: %s", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := telemetry.Summarize(f)
	if err != nil {
		t.Fatalf("trace does not replay: %v", err)
	}
	for _, kind := range []telemetry.Kind{telemetry.KindDecision, telemetry.KindConflict,
		telemetry.KindLearn, telemetry.KindStop} {
		if sum.ByKind[kind] == 0 {
			t.Errorf("trace has no %q events: %v", kind, sum.ByKind)
		}
	}
	// The stderr counters and the trace describe the same run.
	for _, c := range []struct {
		field string
		kind  telemetry.Kind
	}{{"decisions", telemetry.KindDecision}, {"conflicts", telemetry.KindConflict}, {"fixpoints", telemetry.KindFixpoint}} {
		m := regexp.MustCompile(c.field + `=(\d+)`).FindStringSubmatch(stderr)
		if m == nil {
			t.Fatalf("stats line lacks %s=: %q", c.field, stderr)
		}
		if want := m[1]; strconv.FormatInt(sum.ByKind[c.kind], 10) != want {
			t.Errorf("%s: stats say %s, trace has %d", c.field, want, sum.ByKind[c.kind])
		}
	}
}

// TestCLITraceSequential: a -trace run on a TRUE instance must produce a
// replayable trace ending in a stop event that encodes the verdict.
func TestCLITraceSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	_, _, code := runCLI(t, "-trace", path, "testdata/true.qdimacs")
	if code != 10 {
		t.Fatalf("exit %d, want 10", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last telemetry.Event
	n := 0
	if err := telemetry.ReadEvents(f, func(e telemetry.Event) error {
		last = e
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	if last.Kind != telemetry.KindStop || last.A != int64(core.True) {
		t.Fatalf("last event %+v, want a stop carrying the TRUE verdict", last)
	}
}
