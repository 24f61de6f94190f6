//go:build qbfdebug

// Chaos coverage for the solve service: a storm of concurrent requests
// with injected panics (via the qbfdebug fault hook), client disconnects,
// tiny budgets, and mixed solver configurations. Run with -race; the
// assertions are:
//
//   - every response the server sends is well-formed and carries one of
//     the documented statuses for its situation;
//   - every decided verdict agrees with a direct sequential solve of the
//     same instance (the oracle);
//   - the poison configuration's breaker opens, the rest of the pool
//     keeps serving, and after the fault clears a half-open probe closes
//     the breaker again;
//   - a drain in the middle of the storm still answers every request;
//   - no goroutines outlive the server.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/result"
)

// chaosInstance is one pool entry: the QDIMACS text and its oracle
// verdict from an unbudgeted sequential solve.
type chaosInstance struct {
	text    string
	verdict core.Verdict
}

// chaosPool builds small random instances and solves each one cleanly for
// the oracle. The params keep single solves in the sub-millisecond range
// so a few hundred requests finish quickly even under -race.
func chaosPool(t *testing.T, n int) []chaosInstance {
	t.Helper()
	pool := make([]chaosInstance, n)
	for i := range pool {
		q := randqbf.Prob(randqbf.ProbParams{
			Blocks: 2, BlockSize: 6, Clauses: 26, Length: 3, MaxUniversal: 1, Seed: int64(100 + i),
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
		pool[i] = chaosInstance{text: text, verdict: res.Verdict}
	}
	return pool
}

// poisonKey is the solver configuration the chaos hook makes crash-loop.
const poisonKey = "to:ed-ad"

func postRaw(ctx context.Context, url string, req SolveRequest) (int, SolveResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, SolveResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/solve", bytes.NewReader(body))
	if err != nil {
		return 0, SolveResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, SolveResponse{}, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(hresp.Body)
	if err != nil {
		return 0, SolveResponse{}, err
	}
	var resp SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return hresp.StatusCode, SolveResponse{}, fmt.Errorf("status %d with malformed body %q: %w", hresp.StatusCode, data, err)
	}
	return hresp.StatusCode, resp, nil
}

func TestChaosStormWithFaultInjection(t *testing.T) {
	pool := chaosPool(t, 8)
	baseGoroutines := runtime.NumGoroutine()

	var poisonArmed atomic.Bool
	poisonArmed.Store(true)
	cfg := Config{
		Workers:      4,
		QueueDepth:   256,
		QueueTimeout: 30 * time.Second,
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond},
		testSolverHook: func(spec *solveSpec, s *core.Solver) {
			if spec.key == poisonKey && poisonArmed.Load() {
				s.SetFaultHook(func(fp int64) {
					panic("chaos: injected solver fault")
				})
			}
		},
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())

	const storm = 240
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	var decided, panicked, shed, cancelled atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			inst := pool[rng.Intn(len(pool))]
			req := SolveRequest{Formula: inst.text}
			switch {
			case i%5 == 1: // poison configuration: panics while armed
				req.Mode = "to"
				req.Strategy = "ed-ad"
			case i%5 == 2:
				req.Mode = "to"
			case i%10 == 3:
				req.Mode = "to"
				req.Strategy = "eu-ad"
			}
			switch {
			case i%7 == 0:
				req.MaxNodes = int64(1 + rng.Intn(4))
			case i%11 == 0:
				req.MaxTimeMS = 1
			}
			ctx := context.Background()
			if i%13 == 0 { // impatient client: may disconnect at any stage
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(3))*time.Millisecond)
				defer cancel()
			}
			status, resp, err := postRaw(ctx, ts.URL, req)
			if err != nil {
				if ctx.Err() != nil {
					cancelled.Add(1)
					return // a disconnected client gets no response, by design
				}
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			switch status {
			case result.StatusOK:
				decided.Add(1)
				if resp.Verdict != inst.verdict.String() {
					errs <- fmt.Errorf("request %d: verdict %q, oracle %v", i, resp.Verdict, inst.verdict)
				}
				if resp.Stats == nil {
					errs <- fmt.Errorf("request %d: 200 without stats", i)
				}
			case result.StatusUnprocessable:
				if resp.Stop != "node-limit" {
					errs <- fmt.Errorf("request %d: 422 with stop %q", i, resp.Stop)
				}
			case result.StatusTimeout:
				if resp.Stop != "timeout" {
					errs <- fmt.Errorf("request %d: 504 with stop %q", i, resp.Stop)
				}
			case result.StatusInternalError:
				panicked.Add(1)
				if req.Strategy != "ed-ad" {
					errs <- fmt.Errorf("request %d: healthy config %q panicked: %+v", i, req.Mode, resp)
				}
				if resp.Stop != "panicked" || resp.Error == "" {
					errs <- fmt.Errorf("request %d: 500 with stop %q error %q", i, resp.Stop, resp.Error)
				}
			case result.StatusUnavailable:
				shed.Add(1)
				if resp.Shed == "" && resp.Stop != "cancelled" {
					errs <- fmt.Errorf("request %d: bare 503: %+v", i, resp)
				}
				if resp.Shed == "breaker-open" && req.Strategy != "ed-ad" {
					errs <- fmt.Errorf("request %d: healthy config hit an open breaker", i)
				}
			case result.StatusTooManyRequests:
				shed.Add(1)
				if resp.Shed != "queue-full" {
					errs <- fmt.Errorf("request %d: 429 with shed %q", i, resp.Shed)
				}
			default:
				errs <- fmt.Errorf("request %d: unexpected status %d: %+v", i, status, resp)
			}
		}(i)
	}
	wg.Wait()
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
	if panicked.Load() == 0 {
		t.Fatal("fault injection never surfaced a contained panic")
	}
	t.Logf("storm: %d decided, %d panicked, %d shed, %d client-cancelled",
		decided.Load(), panicked.Load(), shed.Load(), cancelled.Load())

	// The poison configuration must be quarantined with a tripped breaker;
	// healthy configurations must be untouched.
	snap := s.Snapshot()
	if snap.Panics == 0 || snap.Breakers[poisonKey].Trips == 0 {
		t.Fatalf("poison breaker never tripped: %+v", snap.Breakers[poisonKey])
	}
	if len(snap.Quarantined) != 1 || snap.Quarantined[0] != poisonKey {
		t.Fatalf("quarantined = %v, want [%s]", snap.Quarantined, poisonKey)
	}
	for key, b := range snap.Breakers {
		if key != poisonKey && b.Trips != 0 {
			t.Fatalf("healthy breaker %q tripped %d times", key, b.Trips)
		}
	}

	// Recovery: clear the fault and keep knocking on the poison
	// configuration. After the cooldown a half-open probe must succeed and
	// close the breaker.
	poisonArmed.Store(false)
	inst := pool[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, resp, err := postRaw(context.Background(), ts.URL,
			SolveRequest{Formula: inst.text, Mode: "to", Strategy: "ed-ad"})
		if err != nil {
			t.Fatal(err)
		}
		if status == result.StatusOK {
			if resp.Verdict != inst.verdict.String() {
				t.Fatalf("recovered verdict %q, oracle %v", resp.Verdict, inst.verdict)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poison config never recovered: last status %d %+v", status, resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := s.breakerFor(poisonKey).State(); got != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}

	// Teardown and goroutine hygiene: after drain + server close the
	// goroutine count must return to (about) the pre-test level.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	waitFor(t, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+8
	})
}

func TestChaosDrainUnderLoad(t *testing.T) {
	pool := chaosPool(t, 4)
	s := New(Config{Workers: 4, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const storm = 120
	var wg sync.WaitGroup
	errs := make(chan error, storm)
	var served, shedDraining atomic.Int64
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := pool[i%len(pool)]
			status, resp, err := postRaw(context.Background(), ts.URL, SolveRequest{Formula: inst.text})
			if err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			switch status {
			case result.StatusOK:
				served.Add(1)
				if resp.Verdict != inst.verdict.String() {
					errs <- fmt.Errorf("request %d: verdict %q, oracle %v", i, resp.Verdict, inst.verdict)
				}
			case result.StatusUnavailable:
				shedDraining.Add(1)
				if resp.Shed == "" && resp.Stop != "cancelled" {
					errs <- fmt.Errorf("request %d: bare 503: %+v", i, resp)
				}
			case result.StatusTooManyRequests:
				// queue overflow during the pile-up is fine
			default:
				errs <- fmt.Errorf("request %d: unexpected status %d: %+v", i, status, resp)
			}
		}(i)
	}
	// Let some of the storm land, then drain in the middle of it. Every
	// request must still get a well-formed answer.
	waitFor(t, func() bool { return s.Snapshot().Completed > 10 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if served.Load() == 0 {
		t.Fatal("nothing was served before the drain")
	}
	if snap := s.Snapshot(); snap.InFlight != 0 || !snap.Draining {
		t.Fatalf("post-drain snapshot: %+v", snap)
	}
	t.Logf("drain under load: %d served, %d shed", served.Load(), shedDraining.Load())
}
