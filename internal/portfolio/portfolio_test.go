package portfolio

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qbf"
	"repro/internal/randqbf"
	"repro/internal/telemetry"
)

func mustSolve(t *testing.T, q *qbf.QBF, cfg Options) Result {
	t.Helper()
	rep, err := Solve(context.Background(), q, cfg)
	if err != nil {
		t.Fatalf("portfolio.Solve: %v", err)
	}
	return rep
}

func TestPortfolioTrivial(t *testing.T) {
	v := qbf.MinVar
	prefix := qbf.NewPrenexPrefix(1, qbf.Run{Quant: qbf.Exists, Vars: []qbf.Var{v}})
	qTrue := qbf.New(prefix, []qbf.Clause{{v.PosLit()}})
	qFalse := qbf.New(prefix.Clone(), []qbf.Clause{{v.PosLit()}, {v.NegLit()}})

	for _, tc := range []struct {
		name string
		q    *qbf.QBF
		want core.Verdict
	}{{"true", qTrue, core.True}, {"false", qFalse, core.False}} {
		rep := mustSolve(t, tc.q, Options{Workers: 4, Share: true})
		if rep.Verdict != tc.want {
			t.Fatalf("%s: got %v, want %v (report %+v)", tc.name, rep.Verdict, tc.want, rep)
		}
		if rep.Winner < 0 || rep.Winner >= len(rep.Workers) {
			t.Fatalf("%s: winner index %d out of range", tc.name, rep.Winner)
		}
		if rep.Stop != core.StopNone {
			t.Fatalf("%s: decided run reports stop %v", tc.name, rep.Stop)
		}
	}
}

func TestPortfolioNilAndEmpty(t *testing.T) {
	if _, err := Solve(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil formula accepted")
	}
	q := randqbf.Fixed(0)
	if _, err := Solve(context.Background(), q, Options{Schedule: []WorkerConfig{}}); err == nil {
		t.Fatal("empty schedule accepted")
	}
	bad := []WorkerConfig{{Name: "bad", Options: core.Options{Mode: core.ModeTotalOrder}}}
	tree, _, _ := randqbf.MiniscopeFilter(q, 0)
	if !tree.Prefix.IsPrenex() {
		if _, err := Solve(context.Background(), tree, Options{Schedule: bad}); err == nil {
			t.Fatal("total-order worker without Prenexed accepted on a tree input")
		}
	}
}

// TestPortfolioDifferential is the portfolio half of the differential test
// layer: on ≥200 random instances (tree and prenex) the portfolio — across
// worker counts, sharing on and off, oversubscribed and racing slot
// configurations — must agree with the sequential solver and with the
// semantic oracle. Run under -race by scripts/check.sh.
func TestPortfolioDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	n := 240
	if testing.Short() {
		n = 60
	}
	type cfgCase struct {
		name    string
		workers int
		share   bool
		par     int
		det     bool
	}
	cases := []cfgCase{
		{"w1", 1, false, 1, false},
		{"w2-share", 2, true, 2, false},
		{"w4-noshare", 4, false, 2, false},
		{"w4-share", 4, true, 4, false},
		{"w4-share-det", 4, true, 1, true},
		{"w4-share-oversub", 4, true, 1, false},
	}
	checked := 0
	for i := 0; i < n; i++ {
		q := qbf.RandomQBF(rng, 11, 13)
		want, ok := qbf.EvalWithBudget(q, 2_000_000)
		if !ok {
			continue
		}
		seqRRes, err := core.Solve(context.Background(), q, core.Options{Mode: core.ModePartialOrder})
		seqR := seqRRes.Verdict
		if err != nil {
			t.Fatalf("iteration %d: sequential: %v", i, err)
		}
		if (seqR == core.True) != want {
			t.Fatalf("iteration %d: sequential solver disagrees with oracle", i)
		}
		for _, c := range cases {
			rep := mustSolve(t, q, Options{
				Workers: c.workers, Share: c.share,
				MaxParallel: c.par, Deterministic: c.det,
				SliceNodes: 64, // small slices: force many resume cycles
			})
			if rep.Verdict == core.Unknown {
				t.Fatalf("iteration %d cfg %s: Unknown (stop %v, report %+v)\nQBF: %v",
					i, c.name, rep.Stop, rep, q)
			}
			if (rep.Verdict == core.True) != want {
				t.Fatalf("iteration %d cfg %s: portfolio says %v, oracle says %v (winner %s)\nQBF: %v",
					i, c.name, rep.Verdict, want, rep.WinnerName(), q)
			}
			if rep.Verdict != seqR {
				t.Fatalf("iteration %d cfg %s: portfolio %v != sequential %v", i, c.name, rep.Verdict, seqR)
			}
		}
		checked++
	}
	if checked < n*3/4 {
		t.Fatalf("only %d/%d instances fit the oracle budget — generator drifted", checked, n)
	}
	t.Logf("portfolio agreed with sequential and oracle on %d instances × %d configs", checked, len(cases))
}

// TestPortfolioDifferentialStructured repeats the differential check on
// structured instances where learning actually fires, so constraint
// sharing moves real clauses and cubes between workers: the prenex
// fixed-class formulas, their miniscoped trees, and four adversarial
// model-A instances on which the default configuration is 8–60x slower
// than some schedule member, so a non-default worker decides the race
// there.
func TestPortfolioDifferentialStructured(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	var fixed, trees, adv []namedQBF
	for i := 0; i < n; i++ {
		fixed = append(fixed, namedQBF{fmt.Sprintf("fixed-%d", i), randqbf.Fixed(int64(i))})
	}
	for i := 0; i < 6; i++ {
		tree, _, _ := randqbf.MiniscopeFilter(randqbf.Fixed(int64(i)), 0)
		trees = append(trees, namedQBF{fmt.Sprintf("fixed-%d-tree", i), tree})
	}
	for _, seed := range []int64{2, 15, 20, 37} {
		adv = append(adv, namedQBF{fmt.Sprintf("prob-adv-%d", seed), randqbf.Prob(randqbf.ProbParams{
			Blocks: 3, BlockSize: 24, Clauses: 504, Length: 5, MaxUniversal: 1, Seed: seed,
		})})
	}

	// The tree inputs only add coverage if miniscoping really left an
	// incomparable ∃/∀ pair, and the model-A inputs only if they alternate.
	t.Run("input-shape", func(t *testing.T) {
		for _, in := range trees {
			if len(in.q.Matrix) == 0 || in.q.Prefix.IsPrenex() {
				t.Errorf("%s: want a non-empty non-prenex tree (%d clauses, prenex %v)",
					in.name, len(in.q.Matrix), in.q.Prefix.IsPrenex())
			}
		}
		for _, in := range adv {
			st := in.q.Stats()
			if len(in.q.Matrix) == 0 || st.Universals == 0 || st.Existentials == 0 {
				t.Errorf("%s: want a non-empty formula with both quantifiers, got %+v", in.name, st)
			}
		}
	})
	t.Run("fixed", func(t *testing.T) { agreeWithSequential(t, fixed) })
	t.Run("miniscoped-fixed", func(t *testing.T) { agreeWithSequential(t, trees) })
	t.Run("prob-adv", func(t *testing.T) { agreeWithSequential(t, adv) })
}

type namedQBF struct {
	name string
	q    *qbf.QBF
}

// agreeWithSequential demands that a sharing four-worker portfolio decides
// every input with the sequential partial-order solver's verdict.
func agreeWithSequential(t *testing.T, inputs []namedQBF) {
	t.Helper()
	for _, in := range inputs {
		seqRes, err := core.Solve(context.Background(), in.q, core.Options{Mode: core.ModePartialOrder})
		if err != nil {
			t.Fatalf("%s: sequential: %v", in.name, err)
		}
		rep := mustSolve(t, in.q, Options{Workers: 4, Share: true, MaxParallel: 2, SliceNodes: 256})
		if rep.Verdict == core.Unknown || rep.Verdict != seqRes.Verdict {
			t.Fatalf("%s: portfolio %v != sequential %v (winner %s)", in.name, rep.Verdict, seqRes.Verdict, rep.WinnerName())
		}
	}
}

// TestPortfolioDeterministicReproducible runs the deterministic mode twice
// and demands identical reports modulo wall-clock fields.
func TestPortfolioDeterministicReproducible(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	rng := rand.New(rand.NewSource(977))
	for i := 0; i < n; i++ {
		q := qbf.RandomQBF(rng, 11, 13)
		cfg := Options{Workers: 4, Share: true, Deterministic: true, SliceNodes: 64}
		a := mustSolve(t, q, cfg)
		b := mustSolve(t, q, cfg)
		if a.Verdict != b.Verdict || a.Winner != b.Winner {
			t.Fatalf("instance %d: runs differ: (%v, winner %d) vs (%v, winner %d)",
				i, a.Verdict, a.Winner, b.Verdict, b.Winner)
		}
		for w := range a.Workers {
			x, y := a.Workers[w], b.Workers[w]
			if x.Attempts != y.Attempts || x.Verdict != y.Verdict || x.Stats.Decisions != y.Stats.Decisions {
				t.Fatalf("instance %d worker %d (%s): attempts/decisions differ: %d/%d vs %d/%d",
					i, w, x.Name, x.Attempts, x.Stats.Decisions, y.Attempts, y.Stats.Decisions)
			}
		}
	}
}

// TestPortfolioDegeneratesToSequential: one worker, slots ≥ workers — the
// portfolio must do exactly the sequential solver's work (same verdict;
// same decision count, since worker 0 is the default configuration).
func TestPortfolioDegeneratesToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for i := 0; i < 20; i++ {
		q := qbf.RandomQBF(rng, 11, 13)
		seqRRes, err := core.Solve(context.Background(), q, core.Options{Mode: core.ModePartialOrder})
		seqR, seqSt := seqRRes.Verdict, seqRRes.Stats
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		rep := mustSolve(t, q, Options{Workers: 1})
		if rep.Verdict != seqR {
			t.Fatalf("instance %d: %v != sequential %v", i, rep.Verdict, seqR)
		}
		if rep.Stats.Decisions != seqSt.Decisions {
			t.Fatalf("instance %d: portfolio of one did different work: %d decisions vs %d",
				i, rep.Stats.Decisions, seqSt.Decisions)
		}
	}
}

func TestPortfolioNodeBudget(t *testing.T) {
	q := hardInstance()
	rep := mustSolve(t, q, Options{Workers: 4, MaxParallel: 1, SliceNodes: 16,
		Base: core.Options{NodeLimit: 64}})
	if rep.Verdict != core.Unknown {
		t.Skip("instance solved within the tiny budget — not a budget exercise")
	}
	if rep.Stop != core.StopNodeLimit {
		t.Fatalf("stop = %v, want StopNodeLimit", rep.Stop)
	}
	for _, w := range rep.Workers {
		if w.Ran && w.Stats.Decisions > 64+maxSliceNodes {
			t.Fatalf("worker %s burned %d decisions past its 64-decision budget", w.Name, w.Stats.Decisions)
		}
	}
}

func TestPortfolioTimeout(t *testing.T) {
	q := hardInstance()
	rep := mustSolve(t, q, Options{Workers: 4, MaxParallel: 1, SliceNodes: 32,
		Base: core.Options{TimeLimit: time.Millisecond}})
	if rep.Verdict != core.Unknown {
		t.Skip("instance solved within a millisecond — not a timeout exercise")
	}
	if rep.Stop != core.StopTimeout {
		t.Fatalf("stop = %v, want StopTimeout", rep.Stop)
	}
}

func TestPortfolioOuterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Solve(ctx, hardInstance(), Options{Workers: 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rep.Verdict != core.Unknown || rep.Stop != core.StopCancelled {
		t.Fatalf("cancelled run: result %v stop %v, want Unknown/StopCancelled", rep.Verdict, rep.Stop)
	}
}

// TestPortfolioWitness checks that a true tree-form verdict carries the
// winner's outermost existential witness and that it is consistent with
// the sequential witness semantics (every reported variable is a level-1
// existential).
func TestPortfolioWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	found := false
	for i := 0; i < 60 && !found; i++ {
		q := qbf.RandomQBF(rng, 10, 10)
		rep := mustSolve(t, q, Options{Workers: 2, Deterministic: true})
		if rep.Verdict != core.True || rep.Winner != 0 {
			continue
		}
		if rep.Witness == nil {
			// A trivially-true formula can legitimately have no witness;
			// only demand one when the sequential solver produces one.
			s, err := core.NewSolver(q, core.Options{Mode: core.ModePartialOrder})
			if err != nil {
				t.Fatal(err)
			}
			s.Solve(context.Background())
			if _, ok := s.Witness(); ok {
				t.Fatalf("instance %d: sequential has a witness, portfolio lost it", i)
			}
			continue
		}
		found = true
	}
	if !found {
		t.Skip("no witness-bearing true instance in the sample")
	}
}

// TestPortfolioSharingMovesConstraints makes sure sharing is not
// vacuously sound: across structured instances with small slices, at least
// one exchange actually imports something.
func TestPortfolioSharingMovesConstraints(t *testing.T) {
	var imports int64
	n := 10
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		q := randqbf.Fixed(int64(i))
		rep := mustSolve(t, q, Options{Workers: 6, Share: true, MaxParallel: 2, SliceNodes: 128})
		imports += rep.Stats.Imports
	}
	if imports == 0 {
		t.Fatal("no constraint was ever imported — the exchange is dead weight")
	}
	t.Logf("imported %d constraints across the suite", imports)
}

// hardInstance returns a formula comfortably beyond tiny node budgets
// (~6000 decisions, tens of milliseconds for the sequential default).
func hardInstance() *qbf.QBF {
	return randqbf.Prob(randqbf.ProbParams{
		Blocks: 3, BlockSize: 24, Clauses: 504, Length: 5, MaxUniversal: 1, Seed: 2,
	})
}

// TestPortfolioDifferentialTraced re-runs a slice of the differential
// suite with full telemetry attached — JSONL sink plus metrics registry
// shared by every worker — which makes the concurrent emit path visible
// to the race detector (scripts/check.sh runs this package under -race).
// Verdicts must still agree with the sequential solver, the trace must
// replay cleanly, and its counts must match the metrics registry.
func TestPortfolioDifferentialTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(613))
	n := 40
	if testing.Short() {
		n = 10
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewJSONLSink(f)
	m := telemetry.NewMetrics()
	tracer := telemetry.New(sink, m)
	for i := 0; i < n; i++ {
		q := qbf.RandomQBF(rng, 11, 13)
		seqRes, err := core.Solve(context.Background(), q, core.Options{Mode: core.ModePartialOrder})
		if err != nil {
			t.Fatalf("iteration %d: sequential: %v", i, err)
		}
		rep := mustSolve(t, q, Options{
			Workers: 4, Share: true, MaxParallel: 4, SliceNodes: 64,
			Base: core.Options{Telemetry: tracer},
		})
		if rep.Verdict != seqRes.Verdict {
			t.Fatalf("iteration %d: traced portfolio %v != sequential %v", i, rep.Verdict, seqRes.Verdict)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sum, err := telemetry.Summarize(rf)
	if err != nil {
		t.Fatalf("trace written under contention does not replay: %v", err)
	}
	if sum.Total == 0 || sum.ByKind[telemetry.KindDecision] == 0 || sum.ByKind[telemetry.KindStop] == 0 {
		t.Fatalf("trace too thin: %+v", sum)
	}
	for w := range sum.ByWorker {
		if w < 0 || w >= 4 {
			t.Errorf("event tagged with out-of-range worker %d", w)
		}
	}
	for _, k := range telemetry.Kinds() {
		if got, want := m.Count(k), sum.ByKind[k]; got != want {
			t.Errorf("metrics[%v]=%d but trace has %d — sink and registry drifted", k, got, want)
		}
	}
}
