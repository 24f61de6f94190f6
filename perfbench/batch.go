package main

import (
	"bufio"
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dia"
	"repro/internal/fpv"
	"repro/internal/ncf"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/telemetry"
)

// paperBatchList names the paper-batch instances. It was fixed once, by
// name, from the default-scale suites (see the file's header); the run
// never filters by measured time.
//
//go:embed paper_batch.txt
var paperBatchList string

// solveBudget is the per-solve budget of the default-scale suites.
const solveBudget = 5 * time.Second

// batchNames returns the instance names of paper_batch.txt in file order.
func batchNames() []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(paperBatchList))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" && !strings.HasPrefix(t, "#") {
			out = append(out, t)
		}
	}
	return out
}

// suiteBuilders maps every default-scale instance name of the NCF, FPV,
// DIA, PROB and FIXED suites to the constructor of its tree form, exactly
// as internal/bench builds them.
func suiteBuilders() map[string]func() *qbf.QBF {
	s := bench.ScaleDefault
	out := map[string]func() *qbf.QBF{}
	for _, cell := range ncf.Grid(s.NCFDep, s.PerCell) {
		for k := 0; k < cell.Instances; k++ {
			p := cell.Params
			p.Seed = int64(k)
			out[p.String()] = func() *qbf.QBF { return ncf.Generate(p) }
		}
	}
	for _, p := range fpv.Suite(s.FPVSeeds) {
		p := p
		// fpv.Params.String omits the density, which the suite varies.
		name := fmt.Sprintf("fpv-s%d-k%d-b%d-d%d-%d", p.Services, p.Steps, p.Bits, p.Density, p.Seed)
		out[name] = func() *qbf.QBF { return fpv.Generate(p) }
	}
	for _, m := range bench.DIAModels(s) {
		m := m
		for n := 0; n <= 16; n++ {
			n := n
			out[fmt.Sprintf("%s-phi%d", m.Name, n)] = func() *qbf.QBF { return dia.Phi(m, n) }
		}
	}
	for _, p := range randqbf.ProbSuite(s.EvalSeeds) {
		p := p
		// ProbParams.String omits the community count, which the suite
		// varies.
		name := fmt.Sprintf("prob-b%d-s%d-c%d-l%d-m%d-%d", p.Blocks, p.BlockSize, p.Clauses, p.Length, p.Communities, p.Seed)
		out[name] = func() *qbf.QBF {
			tree, _, _ := randqbf.MiniscopeFilter(randqbf.Prob(p), 0.2)
			return tree
		}
	}
	for i, q := range randqbf.FixedSuite(s.EvalSeeds * 4) {
		q := q
		out["fixed-"+strconv.Itoa(i)] = func() *qbf.QBF {
			tree, _, _ := randqbf.MiniscopeFilter(q, 0.2)
			return tree
		}
	}
	return out
}

// batchInstance is one paper-batch formula as the solver receives it.
type batchInstance struct {
	name string
	text string
}

// buildBatch generates and serializes the named instances.
func buildBatch() ([]batchInstance, error) {
	builders := suiteBuilders()
	var out []batchInstance
	for _, name := range batchNames() {
		b, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("paper-batch: unknown instance %q", name)
		}
		text, err := qdimacs.WriteString(b())
		if err != nil {
			return nil, fmt.Errorf("paper-batch: %s: %w", name, err)
		}
		out = append(out, batchInstance{name, text})
	}
	return out, nil
}

// layerTimes accumulates time spent inside each layer's public calls.
type layerTimes struct {
	read, prenex, setup, search, frameOps time.Duration
}

func (l layerTimes) total() time.Duration {
	return l.read + l.prenex + l.setup + l.search + l.frameOps
}

// solveOutcome is one timed solve from text.
type solveOutcome struct {
	verdict core.Verdict
	stats   core.Stats
	wall    time.Duration
}

// solveText reads text, prenexes it (∃↑∀↑) for total-order mode, builds a
// solver and solves, timing each call into lt.
func solveText(ctx context.Context, text string, mode core.Mode, opt core.Options, lt *layerTimes) (solveOutcome, error) {
	t0 := time.Now()
	q, err := qdimacs.ReadString(text)
	t1 := time.Now()
	lt.read += t1.Sub(t0)
	if err != nil {
		return solveOutcome{}, err
	}
	if mode == core.ModeTotalOrder {
		q = prenex.Apply(q, prenex.EUpAUp)
		t2 := time.Now()
		lt.prenex += t2.Sub(t1)
		t1 = t2
	}
	opt.Mode = mode
	s, err := core.NewSolver(q, opt)
	t2 := time.Now()
	lt.setup += t2.Sub(t1)
	if err != nil {
		return solveOutcome{}, err
	}
	v := s.Solve(ctx)
	t3 := time.Now()
	lt.search += t3.Sub(t2)
	return solveOutcome{verdict: v, stats: s.Stats(), wall: t3.Sub(t0)}, nil
}

// setupRepeats is how many times the serve-mix run repeats its set-up;
// setup_s is the median, so one slow repetition does not move it. The
// in-process set-ups take milliseconds, so they repeat more.
const (
	setupRepeats      = 3
	quickSetupRepeats = 9
)

// runBatch is the paper-batch workload: Table I's PO-on-tree against
// TO-on-prenex comparison, in process on one goroutine.
func runBatch(cfg config, rep *report) error {
	var insts []batchInstance
	var setups []float64
	for i := 0; i < quickSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if insts, err = buildBatch(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))
	ref := loadReference()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	poTimes := make([][]float64, len(insts))
	toTimes := make([][]float64, len(insts))
	var (
		lt                    layerTimes
		tracedWall, plainWall []float64
		tracedPasses          int
		stats                 [2]core.Stats
		metricsReg            = telemetry.NewMetrics()
		rt0                   = readRuntime()
	)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		// A traced run alternates plain and traced passes, so the traced
		// figures and the overhead come from the same run.
		traced := cfg.traced && pass%2 == 1
		opt := core.Options{TimeLimit: solveBudget}
		passLT := &layerTimes{}
		if traced {
			opt.Telemetry = telemetry.New(nil, metricsReg)
		}
		passStart := time.Now()
		for _, i := range rng.Perm(len(insts)) {
			inst := insts[i]
			var verdicts [2]core.Verdict
			for m, mode := range []core.Mode{core.ModePartialOrder, core.ModeTotalOrder} {
				out, err := solveText(ctx, inst.text, mode, opt, passLT)
				if err != nil {
					return fmt.Errorf("%s %v: %w", inst.name, mode, err)
				}
				rep.Attempted++
				verdicts[m] = out.verdict
				if out.verdict == core.Unknown {
					rep.Failed++
				}
				if m == 0 {
					poTimes[i] = append(poTimes[i], ms(out.wall))
				} else {
					toTimes[i] = append(toTimes[i], ms(out.wall))
				}
				if traced {
					stats[m].Merge(out.stats)
				}
			}
			if err := ref.checkPair(wlBatch+"/"+inst.name, verdicts[0], verdicts[1]); err != nil {
				return err
			}
		}
		wall := time.Since(passStart)
		if traced {
			tracedPasses++
			tracedWall = append(tracedWall, wall.Seconds())
			lt.read += passLT.read
			lt.prenex += passLT.prenex
			lt.setup += passLT.setup
			lt.search += passLT.search
		} else {
			plainWall = append(plainWall, wall.Seconds())
		}
	}
	rt1 := readRuntime()

	po := make([]float64, len(insts))
	to := make([]float64, len(insts))
	for i := range insts {
		po[i] = minimum(poTimes[i])
		to[i] = minimum(toTimes[i])
	}
	poTail, _ := percentile(flatten(poTimes), inProcessTail)
	toTail, _ := percentile(flatten(toTimes), inProcessTail)
	rep.setOps(geomean(po), poTail, geomean(to), toTail)
	fmt.Printf("paper-batch: %d instances, %d passes\n", len(insts), len(poTimes[0]))
	if !cfg.traced {
		return nil
	}
	if tracedPasses == 0 {
		return fmt.Errorf("--seconds too short for a traced pass")
	}
	per := float64(tracedPasses)
	rep.set("qdimacs.read_ms", ms(lt.read)/per)
	rep.set("prenex.apply_ms", ms(lt.prenex)/per)
	rep.set("core.setup_ms", ms(lt.setup)/per)
	rep.set("core.search_ms", ms(lt.search)/per)
	var all core.Stats
	for m, suffix := range []string{".po", ".to"} {
		setCoreCounts(rep, suffix, stats[m], per)
		all.Merge(stats[m])
	}
	setCoreCounts(rep, "", all, per)
	if lt.search > 0 {
		rep.set("core.props_per_ms", float64(all.Propagations)/ms(lt.search))
	}
	setTelemetry(rep, metricsReg, per)
	rep.setRuntime(rt0, rt1)
	rep.set("bench.trace_overhead", median(tracedWall)/median(plainWall))
	return reconcile(rep, lt.total(), sum(tracedWall), 0.95)
}

// setCoreCounts reports search-effort counters per pass. The peak learned
// memory is a high-water mark, so it is not divided.
func setCoreCounts(rep *report, suffix string, st core.Stats, per float64) {
	vals := []int64{st.Decisions, st.Propagations, st.Conflicts, st.Solutions,
		st.LearnedClauses, st.LearnedCubes, st.Restarts}
	for i, c := range coreCounts {
		rep.set("core."+c+suffix, float64(vals[i])/per)
	}
	rep.set("core.peak_learned_kb"+suffix, float64(st.PeakLearnedBytes)/1024)
}

// setTelemetry reports the metrics-only tracer's event counts per pass.
func setTelemetry(rep *report, m *telemetry.Metrics, per float64) {
	for _, k := range []telemetry.Kind{telemetry.KindRestart, telemetry.KindFrame, telemetry.KindCacheHit} {
		rep.set("telemetry."+k.String(), float64(m.Count(k))/per)
	}
}

// reconcile checks that the layer timings cover the traced wall time to
// within the stated share, and reports the share.
func reconcile(rep *report, covered time.Duration, wallSeconds, minShare float64) error {
	share := covered.Seconds() / wallSeconds
	rep.set("bench.reconcile_share", share)
	if share < minShare || share > 1.0001 {
		return fmt.Errorf("layer timings cover %.3f of the traced wall time, want [%.2f, 1]", share, minShare)
	}
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
