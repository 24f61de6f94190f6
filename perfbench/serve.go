package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// The serve-mix load. Connection 1 sends one-shot solves to the gate open
// loop at nominalRate; half of them are renamed copies of a recent formula
// (gate cache hits), half fresh instances (misses that reach a backend).
// Connection 2 runs sessionCalls-call sessions on the journaled backend,
// closed loop. The rates and the limit were set on a 2-core machine where
// one connection's mean round trip is about 1 ms.
const (
	// nominalRate keeps connection 1 about a quarter busy. At half busy,
	// queueing amplified machine noise and the p99 moved by 30% between
	// runs of the same code.
	nominalRate = 300.0
	// copyShare is the share of one-shots that repeat a recent formula.
	copyShare = 0.5
	// copyWindow bounds how far back a copy reaches, well inside the
	// gate's 4096-entry cache, so every copy of a decided formula hits.
	copyWindow = 256
	// sessionCalls is K, the push/assume/solve/pop calls per session.
	sessionCalls = 8
	// sessionThink is the pause between one session call's reply and the
	// next call. Without it the closed loop would keep a core busy on its
	// own and leave the one-shot tail to the scheduler.
	sessionThink = time.Millisecond
	// sessionBases is how many distinct session formulas a run cycles.
	sessionBases = 64
	// warmup is the open-loop warm-up at nominalRate, on formulas
	// disjoint from the timed stream.
	warmup = 300 * time.Millisecond

	// latencyLimit is the one-shot tail limit of the ramp: several times
	// the tail at the nominal rate, so a step misses it once requests
	// queue up behind a saturated connection, where latency climbs
	// steeply with rate, and not on scheduler noise.
	latencyLimit = 50 * time.Millisecond
	// The ramp climbs 5% per step from above the nominal rate, so
	// solve_max_rps resolves a 5% change; its top step, 2.5k req/s, is
	// about 1.5× the highest rate a 2-core machine sustains.
	rampStart   = 900.0
	rampFactor  = 1.05
	rampSteps   = 22
	rampStepDur = 600 * time.Millisecond
)

// defaultPhase is the timed phase of an untraced run at the 30 measured
// seconds BENCHMARK.json sets; reference.json covers its fresh formulas.
const defaultPhase = 30 * time.Second

// Stream spaces keep the warm-up, timed, ramp and session formulas
// disjoint.
const (
	spaceTimed = iota
	spaceRamp
	spaceWarm
	spaceSession
)

var freshParams = randqbf.ProbParams{Blocks: 3, BlockSize: 8, Clauses: 60, Length: 4, MaxUniversal: 2}
var sessionParams = randqbf.ProbParams{Blocks: 3, BlockSize: 10, Clauses: 90, Length: 4, MaxUniversal: 2}

// freshSeed is the generator seed of fresh formula j in a space.
func freshSeed(seed int64, space, j int) int64 {
	return seed*1_000_003 + int64(space)*100_000_007 + int64(j)
}

func freshFormula(seed int64, space, j int) *qbf.QBF {
	p := freshParams
	p.Seed = freshSeed(seed, space, j)
	return randqbf.Prob(p)
}

// sessionBase is session formula b and the root-block literals its calls
// assume.
func sessionBase(seed int64, b int) (*qbf.QBF, []int) {
	p := sessionParams
	p.Seed = freshSeed(seed, spaceSession, b)
	q := randqbf.Prob(p)
	var lits []int
	for _, v := range q.Prefix.Roots()[0].Vars[:sessionCalls/2] {
		lits = append(lits, v.Int(), -v.Int())
	}
	return q, lits
}

// oneShot is one request of the open-loop stream.
type oneShot struct {
	text  string
	fresh int // index of the fresh formula it is, or copies
	copy  bool
}

// stream generates the requests of one space: fresh formulas and
// renamed copies of recent ones, drawn from the seed. It keeps only the
// formulas a copy can still reach.
type stream struct {
	seed   int64
	space  int
	rng    *rand.Rand
	recent []*qbf.QBF // the last copyWindow fresh formulas
	nFresh int
}

func newStream(seed int64, space int) *stream {
	return &stream{seed: seed, space: space, rng: rand.New(rand.NewSource(seed*7919 + int64(space)))}
}

// take returns the next n requests.
func (g *stream) take(n int) ([]oneShot, error) {
	out := make([]oneShot, 0, n)
	for len(out) < n {
		if len(g.recent) > 0 && g.rng.Float64() < copyShare {
			k := g.rng.Intn(len(g.recent))
			q := g.recent[k]
			perm := qbf.IdentityPerm(q.MaxVar())
			for i, v := range g.rng.Perm(q.MaxVar()) {
				perm[i+1] = qbf.Var(v + 1)
			}
			text, err := qdimacs.WriteString(qbf.Rename(q, perm))
			if err != nil {
				return nil, err
			}
			out = append(out, oneShot{text: text, fresh: g.nFresh - len(g.recent) + k, copy: true})
			continue
		}
		q := freshFormula(g.seed, g.space, g.nFresh)
		text, err := qdimacs.WriteString(q)
		if err != nil {
			return nil, err
		}
		out = append(out, oneShot{text: text, fresh: g.nFresh})
		g.nFresh++
		if g.recent = append(g.recent, q); len(g.recent) > copyWindow {
			g.recent = g.recent[1:]
		}
	}
	return out, nil
}

// stack is the served topology: qbfgate in front of two single-worker
// qbfd backends, the first journaling sessions to dir.
type stack struct {
	backends []*server.Server
	gate     *gate.Gate
	https    []*http.Server
	// shots is connection 1, to the gate; sessions is connection 2, to
	// the journaled backend.
	shots, sessions *client.Client
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // stopped by Close in stop
	return hs, "http://" + ln.Addr().String(), nil
}

func startStack(dir string, tracer *telemetry.Tracer) (*stack, error) {
	st := &stack{}
	var urls []string
	for i := 0; i < 2; i++ {
		cfg := server.Config{Workers: 1, Caps: server.Caps{MaxTime: solveBudget}, Tracer: tracer}
		if i == 0 {
			cfg.JournalDir = dir
		}
		srv := server.New(cfg)
		hs, url, err := listen(srv.Handler())
		if err != nil {
			st.stop()
			return nil, err
		}
		st.backends = append(st.backends, srv)
		st.https = append(st.https, hs)
		urls = append(urls, url)
	}
	pol := client.Policy{BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 1}
	st.sessions = client.New(urls[0], oneConn(), pol)
	g, err := gate.New(gate.Config{Backends: urls, Tracer: tracer})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.gate = g
	hs, url, err := listen(g.Handler())
	if err != nil {
		st.stop()
		return nil, err
	}
	st.https = append(st.https, hs)
	st.shots = client.New(url, oneConn(), pol)
	return st, nil
}

// stop shuts the gate, then drains the backends.
func (st *stack) stop() {
	if st.gate != nil {
		st.https[len(st.https)-1].Close() //nolint:errcheck // every request has returned
		st.gate.Stop()
	}
	for i, srv := range st.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: backend drain:", err)
		}
		cancel()
		st.https[i].Close() //nolint:errcheck // drained
	}
}

// oneConn is an HTTP client that opens at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// shotResult is one served one-shot.
type shotResult struct {
	t        timing
	out      client.Outcome
	err      error
	sendWall time.Duration // send to reply
}

// sendStream runs reqs open loop against url at dues.
func sendStream(ctx context.Context, cl *client.Client, reqs []oneShot, dues []time.Duration) []shotResult {
	res := make([]shotResult, len(dues))
	c := wallClock{start: time.Now()}
	ts := openLoop(c, dues, func(i int) {
		t0 := time.Now()
		res[i].out, res[i].err = cl.Solve(ctx, server.SolveRequest{Formula: reqs[i].text})
		res[i].sendWall = time.Since(t0)
	})
	for i := range ts {
		res[i].t = ts[i]
	}
	return res
}

// shotOK reports a decided 200.
func shotOK(r shotResult) bool { return r.err == nil && r.out.Decided() }

// serveInputs is everything a serve-mix run sends, generated in set-up.
type serveInputs struct {
	timed, warm  []oneShot
	ramp         *stream // generated step by step, between steps
	timedDues    []time.Duration
	warmDues     []time.Duration
	sessionTexts []string
	sessionLits  [][]int
}

// buildServeInputs generates the run's inputs.
func buildServeInputs(seed int64, phase time.Duration) (*serveInputs, error) {
	in := &serveInputs{}
	rng := rand.New(rand.NewSource(seed))
	in.timedDues = poissonSchedule(rng, nominalRate, phase)
	in.warmDues = poissonSchedule(rng, nominalRate, warmup)
	var err error
	if in.timed, err = newStream(seed, spaceTimed).take(len(in.timedDues)); err != nil {
		return nil, err
	}
	if in.warm, err = newStream(seed, spaceWarm).take(len(in.warmDues)); err != nil {
		return nil, err
	}
	in.ramp = newStream(seed, spaceRamp)
	for b := 0; b < sessionBases; b++ {
		q, lits := sessionBase(seed, b)
		text, err := qdimacs.WriteString(q)
		if err != nil {
			return nil, err
		}
		in.sessionTexts = append(in.sessionTexts, text)
		in.sessionLits = append(in.sessionLits, lits)
	}
	return in, nil
}

// rampCapacity is the number of requests the whole ramp would send.
func rampCapacity() int {
	n := 0
	for _, r := range rampRates(rampStart, rampFactor, rampSteps) {
		n += len(evenSchedule(r, rampStepDur))
	}
	return n
}

// sessionCall is one timed session call.
type sessionCall struct {
	base, call int
	out        client.Outcome
	err        error
	wall       time.Duration
}

func callOK(c sessionCall) bool { return c.err == nil && c.out.Decided() }

// runSession opens a session over base b, makes its sessionCalls calls —
// each pops the previous call's frame, pushes a fresh one, assumes one
// root-block literal and solves — and closes it.
func runSession(ctx context.Context, cl *client.Client, in *serveInputs, b int) ([]sessionCall, error) {
	sess, out, err := cl.OpenSession(ctx, server.SessionRequest{Formula: in.sessionTexts[b]})
	if err != nil || sess == nil {
		return nil, fmt.Errorf("open session: %v (status %d)", err, out.Status)
	}
	calls := make([]sessionCall, 0, sessionCalls)
	for c := 0; c < sessionCalls; c++ {
		var ops []server.SessionOp
		if c > 0 {
			ops = append(ops, server.SessionOp{Op: "pop"})
		}
		ops = append(ops, server.SessionOp{Op: "push"}, server.SessionOp{Op: "assume", Lits: []int{in.sessionLits[b][c]}})
		t0 := time.Now()
		out, err := sess.Solve(ctx, ops, false)
		calls = append(calls, sessionCall{base: b, call: c, out: out, err: err, wall: time.Since(t0)})
		time.Sleep(sessionThink)
	}
	if _, err := sess.Close(ctx); err != nil {
		return calls, fmt.Errorf("close session: %w", err)
	}
	return calls, nil
}

// sessionLoop runs sessions back to back, closed loop, until stop closes.
func sessionLoop(ctx context.Context, cl *client.Client, in *serveInputs, stop <-chan struct{}) ([]sessionCall, error) {
	var all []sessionCall
	for s := 0; ; s++ {
		select {
		case <-stop:
			return all, nil
		default:
		}
		calls, err := runSession(ctx, cl, in, s%len(in.sessionTexts))
		all = append(all, calls...)
		if err != nil {
			return all, err
		}
	}
}

// serveSetup builds the inputs, starts the stack and warms it up with
// formulas disjoint from the timed stream.
func serveSetup(cfg config, dir string, phase time.Duration, tracer *telemetry.Tracer) (*serveInputs, *stack, []shotResult, []sessionCall, error) {
	in, err := buildServeInputs(cfg.seed, phase)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	st, err := startStack(dir, tracer)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ctx := context.Background()
	warm := sendStream(ctx, st.shots, in.warm, in.warmDues)
	calls, err := runSession(ctx, st.sessions, in, sessionBases-1)
	if err != nil {
		st.stop()
		return nil, nil, nil, nil, err
	}
	return in, st, warm, calls, nil
}

// phaseResult is the timed part of a serve-mix run.
type phaseResult struct {
	shots []shotResult
	calls []sessionCall
}

// servePhase runs the timed stream on connection 1 while connection 2
// runs sessions.
func servePhase(ctx context.Context, in *serveInputs, st *stack) (phaseResult, error) {
	stop := make(chan struct{})
	var (
		wg    sync.WaitGroup
		calls []sessionCall
		serr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		calls, serr = sessionLoop(ctx, st.sessions, in, stop)
	}()
	shots := sendStream(ctx, st.shots, in.timed, in.timedDues)
	close(stop)
	wg.Wait()
	return phaseResult{shots: shots, calls: calls}, serr
}

// ramp climbs the fixed ramp on connection 1 while connection 2 keeps
// running sessions, so the mix stays that of the timed phase. Ramp
// arrivals are evenly spaced: Poisson bursts would blur the knee where a
// saturated connection starts to build a backlog.
func ramp(ctx context.Context, in *serveInputs, st *stack) (float64, []rampStep, []oneShot, []shotResult, error) {
	stop := make(chan struct{})
	var (
		wg   sync.WaitGroup
		serr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, serr = sessionLoop(ctx, st.sessions, in, stop)
	}()
	var (
		all  []oneShot
		res  []shotResult
		gerr error
	)
	best, steps := runRamp(rampRates(rampStart, rampFactor, rampSteps), latencyLimit, func(rate float64) rampStep {
		dues := evenSchedule(rate, rampStepDur)
		reqs, err := in.ramp.take(len(dues))
		if err != nil {
			gerr = err
			return rampStep{rate: rate, failed: 1}
		}
		stepRes := sendStream(ctx, st.shots, reqs, dues)
		all = append(all, reqs...)
		res = append(res, stepRes...)
		s := rampStep{rate: rate}
		lat := make([]float64, len(stepRes))
		var end time.Duration
		for i, r := range stepRes {
			lat[i] = ms(r.t.latency())
			if !shotOK(r) {
				s.failed++
			}
			end = max(end, r.t.done)
		}
		s.tail = tail(lat)
		if len(stepRes) > 0 {
			s.lastLate = stepRes[len(stepRes)-1].t.late()
		}
		s.throughput = float64(len(stepRes)) / max(rampStepDur, end).Seconds()
		return s
	})
	close(stop)
	wg.Wait()
	return best, steps, all, res, firstErr(gerr, serr)
}

// runServe is the serve-mix workload.
func runServe(cfg config, rep *report) error {
	ctx := context.Background()
	// An untraced run times the phase for all of --seconds. A traced run
	// splits them between a stack without tracers, which then climbs the
	// ramp, and the traced stack.
	phase := cfg.seconds
	if cfg.traced {
		phase = cfg.seconds / 2
	}
	reg := telemetry.NewMetrics()
	var tracer *telemetry.Tracer
	if cfg.traced {
		tracer = telemetry.New(nil, reg)
	}

	var (
		in     *serveInputs
		st     *stack
		warm   []shotResult
		wcalls []sessionCall
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.stop()
		}
		t0 := time.Now()
		var err error
		in, st, warm, wcalls, err = serveSetup(cfg, filepath.Join(cfg.scratch, fmt.Sprintf("journal-%d", i)), phase, tracer)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Return the earlier set-ups' inputs before measuring, so the
		// high-water RSS does not depend on when the collector ran.
		runtime.GC()
		debug.FreeOSMemory()
	}
	rep.set("setup_s", median(setups))

	var (
		base      phaseResult
		maxRPS    float64
		rampReqs  []oneShot
		rampShots []shotResult
	)
	if cfg.traced {
		// The untraced baseline for bench.trace_overhead: the same phase on
		// a stack built without tracers, which then climbs the ramp.
		plainDir := filepath.Join(cfg.scratch, "journal-plain")
		_, plain, _, _, err := serveSetup(cfg, plainDir, phase, nil)
		if err != nil {
			st.stop()
			return err
		}
		base, err = servePhase(ctx, in, plain)
		if err == nil {
			var steps []rampStep
			maxRPS, steps, rampReqs, rampShots, err = ramp(ctx, in, plain)
			if err == nil {
				last := steps[len(steps)-1]
				fmt.Printf("serve-mix: ramp %d steps, stopped at %.0f req/s (p%g %.2f ms of %d samples, %d beyond; last late %.2f ms; %d failed); limit %v\n",
					len(steps), last.rate, 100*last.tail.P, last.tail.Value, last.tail.Samples, last.tail.Beyond, ms(last.lastLate), last.failed, latencyLimit)
			}
		}
		plain.stop()
		if err != nil {
			st.stop()
			return err
		}
	}

	rt0 := readRuntime()
	res, err := servePhase(ctx, in, st)
	rt1 := readRuntime()
	if err != nil {
		st.stop()
		return err
	}
	gsnap := st.gate.Snapshot()
	bsnaps := []server.Stats{st.backends[0].Snapshot(), st.backends[1].Snapshot()}
	st.stop()

	// Every served verdict is checked after the clock stops.
	if err := checkServe(cfg.seed, in, warm, []phaseResult{res, base}, rampReqs, rampShots, wcalls); err != nil {
		return err
	}

	var lat []float64
	for _, r := range res.shots {
		rep.Attempted++
		if shotOK(r) {
			lat = append(lat, ms(r.t.latency()))
		} else {
			rep.Failed++
			lat = append(lat, math.Inf(1)) // a failure misses every limit
		}
	}
	var callLat []float64
	for _, c := range res.calls {
		rep.Attempted++
		if callOK(c) {
			callLat = append(callLat, ms(c.wall))
		} else {
			rep.Failed++
			callLat = append(callLat, math.Inf(1))
		}
	}
	if len(callLat) == 0 {
		return fmt.Errorf("no session call completed in the timed phase")
	}
	p50, tl := quietestWindow(lat)
	cp50, ctl := quietestWindow(callLat)
	rep.setOps(p50, tl.Value, cp50, ctl.Value)
	rep.set("solve_max_rps", maxRPS)
	fmt.Printf("serve-mix: %d one-shots at %.0f req/s nominal, tail p%g of %d samples per window (%d beyond); %d session calls, tail p%g (%d beyond)\n",
		len(lat), nominalRate, 100*tl.P, tl.Samples, tl.Beyond, len(callLat), 100*ctl.P, ctl.Beyond)
	if !cfg.traced {
		return nil
	}
	serveLayers(rep, in, res, base, gsnap, bsnaps, reg)
	rep.setRuntime(rt0, rt1)
	return nil
}

// serveLayers reports the traced serve-mix layer metrics.
func serveLayers(rep *report, in *serveInputs, res, base phaseResult, gsnap gate.Stats, bsnaps []server.Stats, reg *telemetry.Metrics) {
	var (
		hitLat, missLat        []float64
		queue, solve, overhead float64
		shotQueue, shotSolve   float64
		sendTotal, late        float64
		retries                int64
		counts                 core.Stats
		readT, keyT, setupT    time.Duration
	)
	addStats := func(s *server.ResponseStats) {
		if s == nil {
			return
		}
		counts.Decisions += s.Decisions
		counts.Propagations += s.Propagations
		counts.Conflicts += s.Conflicts
		counts.Solutions += s.Solutions
		counts.LearnedClauses += s.LearnedClauses
		counts.LearnedCubes += s.LearnedCubes
	}
	for i, r := range res.shots {
		resp := r.out.Resp
		retries += int64(max(r.out.Attempts-1, 0))
		late += ms(r.t.late())
		sendTotal += ms(r.sendWall)
		shotQueue += float64(resp.QueueMS)
		shotSolve += float64(resp.SolveMS)
		addStats(resp.Stats)
		if resp.Source == server.SourceCache {
			hitLat = append(hitLat, ms(r.sendWall))
		} else {
			missLat = append(missLat, ms(r.sendWall))
			overhead += ms(r.sendWall) - float64(resp.QueueMS+resp.SolveMS)
		}
		// Replay the request's parse, key and, for misses, solver set-up
		// in process: the time each layer's public call takes on it.
		t0 := time.Now()
		q, err := qdimacs.ReadString(in.timed[i].text)
		t1 := time.Now()
		readT += t1.Sub(t0)
		if err != nil {
			continue
		}
		gate.Key(q, "po", "")
		t2 := time.Now()
		keyT += t2.Sub(t1)
		if resp.Source != server.SourceCache {
			if _, err := core.NewSolver(q, core.Options{}); err == nil {
				setupT += time.Since(t2)
			}
		}
	}
	queue, solve = shotQueue, shotSolve
	for _, c := range res.calls {
		queue += float64(c.out.Resp.QueueMS)
		solve += float64(c.out.Resp.SolveMS)
		retries += int64(max(c.out.Attempts-1, 0))
		addStats(c.out.Resp.Stats)
	}
	rep.set("qdimacs.read_ms", ms(readT))
	rep.set("gate.key_ms", ms(keyT))
	rep.set("core.setup_ms", ms(setupT))
	setCoreCounts(rep, "", counts, 1)
	if lookups := gsnap.CacheHits + gsnap.CacheMisses; lookups > 0 {
		rep.set("gate.cache_hit_ratio", float64(gsnap.CacheHits)/float64(lookups))
	}
	rep.set("gate.hit_p50_ms", median(hitLat))
	rep.set("gate.miss_p50_ms", median(missLat))
	rep.set("gate.hedges", float64(gsnap.Hedges))
	rep.set("gate.failovers", float64(gsnap.Failovers))
	rep.set("server.queue_ms", queue)
	rep.set("server.solve_ms", solve)
	rep.set("server.overhead_ms", overhead)
	var shed int64
	for _, b := range bsnaps {
		for _, n := range b.Shed {
			shed += n
		}
	}
	rep.set("server.shed", float64(shed))
	rep.set("journal.appends", float64(bsnaps[0].Journal.Appends))
	rep.set("journal.bytes", float64(bsnaps[0].Journal.Bytes))
	rep.set("client.retries", float64(retries))
	if n := len(res.shots); n > 0 {
		rep.set("client.late_ms", late/float64(n))
	}
	setTelemetry(rep, reg, 1)
	var baseSend float64
	for _, r := range base.shots {
		baseSend += ms(r.sendWall)
	}
	if baseSend > 0 && len(base.shots) == len(res.shots) {
		rep.set("bench.trace_overhead", sendTotal/baseSend)
	}
	// The share of connection 1's round trips that parse, key, queue and
	// solve account for; the rest is transport, decode, encode and the
	// gate hop (server.overhead_ms). Reported, not enforced: queue_ms and
	// solve_ms are whole-millisecond floors.
	if sendTotal > 0 {
		rep.set("bench.reconcile_share", (ms(readT+keyT)+shotQueue+shotSolve)/sendTotal)
	}
}
