package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dia"
	"repro/internal/models"
	"repro/internal/qbf"
	"repro/internal/telemetry"
)

// ladderBudget bounds each solve of the dia-ladder workload.
const ladderBudget = 10 * time.Second

// ladderModels are the models whose incremental diameter ladder decides
// in well under a second; counter3's does not decide within 10 s.
func ladderModels() []*models.Model {
	return []*models.Model{
		models.DME(3), models.DME(4), models.DME(5),
		models.Ring(4), models.Ring(5),
		models.Semaphore(3), models.Semaphore(4), models.Semaphore(5),
		models.Counter(2),
	}
}

// sweepBase is one variant-sweep base: ladder step k of a model, chosen
// where the whole sweep takes roughly 5–100 ms.
type sweepBase struct {
	m *models.Model
	k int
}

func (b sweepBase) name() string { return fmt.Sprintf("%s-k%d", b.m.Name, b.k) }

func sweepBases() []sweepBase {
	return []sweepBase{
		{models.DME(3), 3}, {models.DME(4), 3}, {models.DME(5), 4},
		{models.Ring(4), 3}, {models.Ring(5), 3},
		{models.Semaphore(3), 3}, {models.Semaphore(4), 3},
		{models.Counter(3), 3},
	}
}

// sweepLits are the variants of a base: each root-block literal, both
// polarities.
func sweepLits(q *qbf.QBF) []qbf.Lit {
	var lits []qbf.Lit
	for _, v := range q.Prefix.Blocks()[0].Vars {
		lits = append(lits, v.PosLit(), v.NegLit())
	}
	return lits
}

// ladderInputs is the dia-ladder set-up: models with their BFS diameter
// and the sweep base formulas.
type ladderInputs struct {
	models    []*models.Model
	diameters []int
	bases     []sweepBase
	formulas  []*qbf.QBF
}

func buildLadder(ref *reference) (*ladderInputs, error) {
	in := &ladderInputs{models: ladderModels(), bases: sweepBases()}
	for _, m := range in.models {
		d, err := ref.diameter(m)
		if err != nil {
			return nil, err
		}
		in.diameters = append(in.diameters, d)
	}
	for _, b := range in.bases {
		q, err := dia.StepInstance(b.m, b.k)
		if err != nil {
			return nil, err
		}
		in.formulas = append(in.formulas, q)
	}
	return in, nil
}

// ladderPass accumulates one pass's layer work.
type ladderPass struct {
	lt       layerTimes
	overhead time.Duration
	stats    core.Stats
}

// runOneLadder runs model i's incremental ladder and checks every step
// against the BFS diameter: φn is true iff n < diameter.
func runOneLadder(ctx context.Context, in *ladderInputs, i int, opt core.Options, rep *report, p *ladderPass) (time.Duration, error) {
	m, d := in.models[i], in.diameters[i]
	t0 := time.Now()
	res, err := dia.ComputeDiameterIncremental(ctx, m, d+1, opt)
	wall := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("ladder %s: %w", m.Name, err)
	}
	var search time.Duration
	for _, st := range res.Steps {
		rep.Attempted++
		switch {
		case st.Result == core.Unknown:
			rep.Failed++
		case (st.Result == core.True) != (st.N < d):
			return 0, fmt.Errorf("%w: ladder %s step %d is %v, BFS diameter %d", errVerdict, m.Name, st.N, st.Result, d)
		}
		search += st.Stats.Time
		p.stats.Merge(st.Stats)
	}
	if res.Decided && res.Diameter != d {
		return 0, fmt.Errorf("%w: ladder %s diameter %d, BFS %d", errVerdict, m.Name, res.Diameter, d)
	}
	p.lt.search += search
	p.overhead += wall - search
	return wall, nil
}

// runOneSweep opens a session on base i, solves it, then runs one
// push/assume/solve/pop per variant, checking each verdict.
func runOneSweep(ctx context.Context, in *ladderInputs, i int, opt core.Options, ref *reference, rep *report, p *ladderPass) (time.Duration, error) {
	b, q := in.bases[i], in.formulas[i]
	opt.Mode = core.ModePartialOrder
	opt.Incremental = true
	t0 := time.Now()
	s, err := core.NewSolver(q, opt)
	t1 := time.Now()
	p.lt.setup += t1.Sub(t0)
	if err != nil {
		return 0, fmt.Errorf("sweep %s: %w", b.name(), err)
	}
	verdicts := []core.Verdict{s.Solve(ctx)}
	t2 := time.Now()
	p.lt.search += t2.Sub(t1)
	for _, l := range sweepLits(q) {
		f0 := time.Now()
		_, perr := s.Push()
		aerr := s.Assume(l)
		f1 := time.Now()
		v := s.Solve(ctx)
		f2 := time.Now()
		_, poperr := s.Pop()
		f3 := time.Now()
		if err := firstErr(perr, aerr, poperr); err != nil {
			return 0, fmt.Errorf("sweep %s: %w", b.name(), err)
		}
		p.lt.frameOps += f1.Sub(f0) + f3.Sub(f2)
		p.lt.search += f2.Sub(f1)
		verdicts = append(verdicts, v)
	}
	wall := time.Since(t0)
	p.stats.Merge(s.Stats())
	key := wlLadder + "/sweep/" + b.name()
	for j, v := range verdicts {
		rep.Attempted++
		if v == core.Unknown {
			rep.Failed++
			continue
		}
		if err := ref.checkIndexed(key, j, v); err != nil {
			return 0, err
		}
	}
	return wall, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLadder is the dia-ladder workload: core's incremental path, in
// process.
func runLadder(cfg config, rep *report) error {
	ref := loadReference()
	var (
		in     *ladderInputs
		setups []float64
	)
	for i := 0; i < quickSetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if in, err = buildLadder(ref); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))

	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	nL, nS := len(in.models), len(in.bases)
	walls := make([][]float64, nL+nS)
	var (
		tracedPass            ladderPass
		tracedWall, plainWall []float64
		tracedPasses          int
		reg                   = telemetry.NewMetrics()
		rt0                   = readRuntime()
	)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		traced := cfg.traced && pass%2 == 1
		opt := core.Options{TimeLimit: ladderBudget}
		if traced {
			opt.Telemetry = telemetry.New(nil, reg)
		}
		var p ladderPass
		passStart := time.Now()
		for _, i := range rng.Perm(nL + nS) {
			var (
				wall time.Duration
				err  error
			)
			if i < nL {
				wall, err = runOneLadder(ctx, in, i, opt, rep, &p)
			} else {
				wall, err = runOneSweep(ctx, in, i-nL, opt, ref, rep, &p)
			}
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], ms(wall))
		}
		wall := time.Since(passStart)
		if traced {
			tracedPasses++
			tracedWall = append(tracedWall, wall.Seconds())
			tracedPass.lt.setup += p.lt.setup
			tracedPass.lt.search += p.lt.search
			tracedPass.lt.frameOps += p.lt.frameOps
			tracedPass.overhead += p.overhead
			tracedPass.stats.Merge(p.stats)
		} else {
			plainWall = append(plainWall, wall.Seconds())
		}
	}
	rt1 := readRuntime()

	var ladders, sweeps []float64
	for i, w := range walls {
		if i < nL {
			ladders = append(ladders, minimum(w))
		} else {
			sweeps = append(sweeps, minimum(w))
		}
	}
	lTail, _ := percentile(flatten(walls[:nL]), inProcessTail)
	sTail, _ := percentile(flatten(walls[nL:]), inProcessTail)
	rep.setOps(geomean(ladders), lTail, geomean(sweeps), sTail)
	fmt.Printf("dia-ladder: %d ladders, %d sweeps, %d passes\n", nL, nS, len(walls[0]))
	if !cfg.traced {
		return nil
	}
	if tracedPasses == 0 {
		return fmt.Errorf("--seconds too short for a traced pass")
	}
	per := float64(tracedPasses)
	lt := tracedPass.lt
	rep.set("core.setup_ms", ms(lt.setup)/per)
	rep.set("core.search_ms", ms(lt.search)/per)
	rep.set("core.frame_ops_ms", ms(lt.frameOps)/per)
	rep.set("dia.overhead_ms", ms(tracedPass.overhead)/per)
	setCoreCounts(rep, "", tracedPass.stats, per)
	if lt.search > 0 {
		rep.set("core.props_per_ms", float64(tracedPass.stats.Propagations)/ms(lt.search))
	}
	setTelemetry(rep, reg, per)
	rep.setRuntime(rt0, rt1)
	rep.set("bench.trace_overhead", median(tracedWall)/median(plainWall))
	ratio, err := ladderDecisionRatio(ctx, in)
	if err != nil {
		return err
	}
	rep.set("core.ladder_decision_ratio", ratio)
	return reconcile(rep, lt.total()+tracedPass.overhead, sum(tracedWall), 0.95)
}

// ladderDecisionRatio is incremental over one-shot decisions for the
// same ladder steps, summed over the models. The one-shot side runs only
// here, outside the timed passes.
func ladderDecisionRatio(ctx context.Context, in *ladderInputs) (float64, error) {
	var inc, one int64
	opt := core.Options{TimeLimit: ladderBudget}
	for i, m := range in.models {
		d := in.diameters[i]
		r, err := dia.ComputeDiameterIncremental(ctx, m, d+1, opt)
		if err != nil {
			return 0, err
		}
		o := dia.ComputeDiameter(m, d+1, dia.SolverPO(ctx, opt))
		if len(o.Steps) != len(r.Steps) {
			return 0, fmt.Errorf("%w: ladder %s: one-shot ran %d steps, incremental %d", errVerdict, m.Name, len(o.Steps), len(r.Steps))
		}
		for j := range r.Steps {
			if o.Steps[j].Result != r.Steps[j].Result {
				return 0, fmt.Errorf("%w: ladder %s step %d: one-shot %v, incremental %v", errVerdict, m.Name, j, o.Steps[j].Result, r.Steps[j].Result)
			}
			inc += r.Steps[j].Stats.Decisions
			one += o.Steps[j].Stats.Decisions
		}
	}
	if one == 0 {
		return 0, fmt.Errorf("one-shot ladders made no decisions")
	}
	return float64(inc) / float64(one), nil
}
