package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/result"
	"repro/internal/server"
	"repro/internal/server/client"
)

// The daemon tests run qbfd end to end: the test binary re-executes itself
// as the real command (TestMain dispatches to main when the marker variable
// is set), so listening, signal-driven drain, exit codes, and the stderr
// framing are exercised exactly as an init system would see them.

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestMain(m *testing.M) {
	if os.Getenv("QBFD_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon is one running qbfd child process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // base URL, e.g. http://127.0.0.1:43121
	scanDone chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

var listenLine = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startDaemon launches qbfd on a kernel-assigned port and waits for the
// listening line to learn the address.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	return startDaemonEnv(t, nil, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
}

// startDaemonEnv is startDaemon with extra child environment (chaos
// knobs) and full control of the argument list, including -addr — the
// crash tests restart a daemon on the exact port its predecessor held so
// that client handles reconnect transparently.
func startDaemonEnv(t *testing.T, env []string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), scanDone: make(chan struct{})}
	d.cmd.Env = append(append(os.Environ(), "QBFD_TEST_RUN_MAIN=1"), env...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill() //nolint:errcheck // last-resort teardown
			d.cmd.Wait()         //nolint:errcheck
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line)
			d.stderr.WriteByte('\n')
			d.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.addr = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("qbfd never printed its listening line")
	}
	return d
}

// wait blocks for process exit and returns the exit code. The stderr
// scanner is drained to EOF first — calling Wait with pipe reads still in
// flight can drop the final lines (os/exec's documented constraint).
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-d.scanDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stderr never reached EOF")
	}
	err := d.cmd.Wait()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return 0
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

func (d *daemon) get(t *testing.T, path string) int {
	t.Helper()
	resp, err := http.Get(d.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// hardFormula returns QDIMACS text that needs seconds of search, so a
// drain deadline can reliably overtake it.
func hardFormula(t *testing.T) string {
	t.Helper()
	q := randqbf.Prob(randqbf.ProbParams{
		Blocks: 3, BlockSize: 40, Clauses: 21 * 40, Length: 5, MaxUniversal: 1, Seed: 4,
	})
	text, err := qdimacs.WriteString(q)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

var (
	portField = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	dirField  = regexp.MustCompile(`( (?:from|at)) \S+`)
)

// checkGolden compares got (with the ephemeral port and any journal
// directory path masked) against the golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	norm := portField.ReplaceAllString(got, "127.0.0.1:<PORT>")
	norm = dirField.ReplaceAllString(norm, "$1 <DIR>")
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

// TestDaemonServeAndCleanDrain: the daemon serves solves over HTTP, then a
// SIGTERM drains it cleanly — exit 0 and the exact stderr framing.
func TestDaemonServeAndCleanDrain(t *testing.T) {
	d := startDaemon(t, "-workers", "2", "-drain-timeout", "5s")
	if st := d.get(t, "/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz = %d", st)
	}
	if st := d.get(t, "/readyz"); st != http.StatusOK {
		t.Fatalf("/readyz = %d", st)
	}
	c := client.New(d.addr, nil, client.Policy{})
	out, err := c.Solve(context.Background(), server.SolveRequest{
		Formula: "p cnf 2 2\ne 1 2 0\n1 0\n-2 0\n", Witness: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Decided() || out.Resp.Verdict != "TRUE" || len(out.Resp.Witness) != 2 {
		t.Fatalf("solve over HTTP: %+v", out)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit %d after clean drain, want 0\nstderr: %s", code, d.stderrText())
	}
	checkGolden(t, "drain_clean.golden", d.stderrText())
}

// TestDaemonDrainDeadlineExit130: a SIGTERM with a solve in flight and a
// too-short drain deadline must force-cancel and exit 130.
func TestDaemonDrainDeadlineExit130(t *testing.T) {
	d := startDaemon(t, "-workers", "2", "-drain-timeout", "100ms")
	solveDone := make(chan client.Outcome, 1)
	go func() {
		c := client.New(d.addr, nil, client.Policy{MaxAttempts: 1})
		out, _ := c.Solve(context.Background(), server.SolveRequest{Formula: hardFormula(t)})
		solveDone <- out
	}()
	// Let the solve get admitted and start, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(d.addr + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if strings.Contains(buf.String(), `"in_flight": 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	code := d.wait(t)
	out := <-solveDone
	if out.Status == result.StatusOK {
		t.Skip("instance solved before the drain deadline on this machine")
	}
	if code != 130 {
		t.Fatalf("exit %d, want 130\nstderr: %s", code, d.stderrText())
	}
	if out.Status != result.StatusUnavailable || out.Resp.Stop != "cancelled" {
		t.Fatalf("force-cancelled solve got %d/%q, want 503/cancelled", out.Status, out.Resp.Stop)
	}
	checkGolden(t, "drain_forced.golden", d.stderrText())
}

// TestDaemonReadinessFlip: during a drain that is waiting out an in-flight
// solve, /healthz stays 200 (the process lives) while /readyz reports 503
// (send no new traffic) and new solves are shed.
func TestDaemonReadinessFlip(t *testing.T) {
	d := startDaemon(t, "-workers", "2", "-drain-timeout", "30s")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solveDone := make(chan struct{})
	go func() {
		defer close(solveDone)
		c := client.New(d.addr, nil, client.Policy{MaxAttempts: 1})
		c.Solve(ctx, server.SolveRequest{Formula: hardFormula(t)}) //nolint:errcheck // outcome irrelevant
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.get(t, "/readyz") == http.StatusOK && time.Now().Before(deadline) {
		// Wait for the solve to be in flight before signalling; readyz
		// stays 200 until then.
		resp, err := http.Get(d.addr + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		resp.Body.Close()
		if strings.Contains(buf.String(), `"in_flight": 1`) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitStatus := func(path, what string, want int) {
		t.Helper()
		dl := time.Now().Add(5 * time.Second)
		for {
			if st := d.get(t, path); st == want {
				return
			} else if time.Now().After(dl) {
				t.Fatalf("%s never reached %d (last %d)", what, want, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitStatus("/readyz", "readiness", result.StatusUnavailable)
	if st := d.get(t, "/healthz"); st != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", st)
	}
	// New work is refused while the old solve keeps its grace period.
	c := client.New(d.addr, nil, client.Policy{MaxAttempts: 1})
	out, err := c.Solve(context.Background(), server.SolveRequest{Formula: "p cnf 1 1\ne 1 0\n1 0\n"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != result.StatusUnavailable || out.Resp.Shed != "draining" {
		t.Fatalf("solve during drain: %d shed=%q, want 503 draining", out.Status, out.Resp.Shed)
	}
	// Disconnect the hard solve's client: its context cancels the solve,
	// the drain completes without hitting the deadline, exit 0.
	cancel()
	<-solveDone
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit %d after drain, want 0\nstderr: %s", code, d.stderrText())
	}
}

// TestDaemonStartupFailure: an unusable listen address must exit 1 with a
// qbfd: message.
func TestDaemonStartupFailure(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "256.0.0.1:1")
	cmd.Env = append(os.Environ(), "QBFD_TEST_RUN_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 || !strings.Contains(errb.String(), "qbfd:") {
		t.Fatalf("err=%v stderr=%q, want exit 1 with a qbfd: message", err, errb.String())
	}
}

// postJSON posts a raw JSON body to the daemon and decodes the solve
// response. The crash tests use it to re-send exact sequence numbers —
// something the client.Session handle hides on purpose.
func (d *daemon) postJSON(t *testing.T, path, body string) (int, server.SolveResponse) {
	t.Helper()
	resp, err := http.Post(d.addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding response: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestDaemonJournalRecovery kills a journaled daemon with SIGKILL — no
// drain, no warning — and boots a fresh one over the same directory: the
// session is recovered, the retried in-flight sequence number replays
// the recorded response, the ladder continues, and the recovery stderr
// line matches the golden file.
func TestDaemonJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	d1 := startDaemon(t, "-workers", "1", "-journal-dir", dir, "-fsync", "always")
	c := client.New(d1.addr, nil, client.Policy{})
	ctx := context.Background()

	sess, out, err := c.OpenSession(ctx, server.SessionRequest{
		Formula: "p cnf 2 2\ne 1 2 0\n1 0\n-2 0\n"})
	if err != nil || sess == nil {
		t.Fatalf("open: %v (out %+v)", err, out)
	}
	if out, err := sess.Solve(ctx, nil, false); err != nil || out.Resp.Verdict != "TRUE" {
		t.Fatalf("solve 1: %v %+v", err, out)
	}
	if out, err := sess.Solve(ctx, []server.SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}, false); err != nil || out.Resp.Verdict != "FALSE" {
		t.Fatalf("solve 2: %v %+v", err, out)
	}

	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := d1.wait(t); code == 0 {
		t.Fatalf("exit 0 after SIGKILL\nstderr: %s", d1.stderrText())
	}

	d2 := startDaemonEnv(t, nil, "-addr", "127.0.0.1:0", "-workers", "1", "-journal-dir", dir, "-fsync", "always")
	// A client that never saw solve 2's response retries the same seq:
	// the recovered idempotency record replays it instead of re-applying
	// the push.
	st, resp := d2.postJSON(t, "/v1/session/"+sess.ID(), `{"seq":2,"ops":[{"op":"push"},{"op":"add","lits":[-1]}]}`)
	if st != http.StatusOK || !resp.Replayed || resp.Verdict != "FALSE" || resp.Depth != 1 {
		t.Fatalf("replayed seq 2: %d %+v", st, resp)
	}
	// The recovered session keeps solving.
	st, resp = d2.postJSON(t, "/v1/session/"+sess.ID(), `{"seq":3,"ops":[{"op":"pop"}]}`)
	if st != http.StatusOK || resp.Verdict != "TRUE" || resp.Depth != 0 {
		t.Fatalf("seq 3 after recovery: %d %+v", st, resp)
	}

	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d2.wait(t); code != 0 {
		t.Fatalf("exit %d after clean drain, want 0\nstderr: %s", code, d2.stderrText())
	}
	checkGolden(t, "journal_recovery.golden", d2.stderrText())
}

// TestDaemonBadFsyncPolicy: an unknown -fsync value must exit 1 before
// the daemon ever listens.
func TestDaemonBadFsyncPolicy(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-journal-dir", t.TempDir(), "-fsync", "sometimes")
	cmd.Env = append(os.Environ(), "QBFD_TEST_RUN_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 || !strings.Contains(errb.String(), "qbfd:") {
		t.Fatalf("err=%v stderr=%q, want exit 1 with a qbfd: message", err, errb.String())
	}
}

// TestDaemonSessions drives a sticky session end to end through the real
// binary with the client handle: open, incremental solves across a
// push/add/pop round trip, close, and a clean drain afterwards.
func TestDaemonSessions(t *testing.T) {
	d := startDaemon(t, "-workers", "1", "-max-sessions", "4", "-session-ttl", "1m")
	c := client.New(d.addr, nil, client.Policy{})
	ctx := context.Background()

	sess, out, err := c.OpenSession(ctx, server.SessionRequest{
		Formula: "p cnf 2 2\ne 1 2 0\n1 0\n-2 0\n"})
	if err != nil || sess == nil {
		t.Fatalf("open: %v (out %+v)", err, out)
	}
	out, err = sess.Solve(ctx, nil, false)
	if err != nil || out.Resp.Verdict != "TRUE" {
		t.Fatalf("solve 1: %v %+v", err, out)
	}
	out, err = sess.Solve(ctx, []server.SessionOp{{Op: "push"}, {Op: "add", Lits: []int{-1}}}, false)
	if err != nil || out.Resp.Verdict != "FALSE" || out.Resp.Depth != 1 {
		t.Fatalf("solve 2: %v %+v", err, out)
	}
	out, err = sess.Solve(ctx, []server.SessionOp{{Op: "pop"}}, false)
	if err != nil || out.Resp.Verdict != "TRUE" || out.Resp.Depth != 0 {
		t.Fatalf("solve 3: %v %+v", err, out)
	}
	if out, err = sess.Close(ctx); err != nil || out.Status != http.StatusOK {
		t.Fatalf("close: %v %+v", err, out)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("exit %d after clean drain, want 0\nstderr: %s", code, d.stderrText())
	}
}
