// Command qbfsolve decides a QBF read from a file or stdin. It accepts
// prenex instances in QDIMACS and non-prenex instances in the QTREE format
// (see internal/qdimacs), and runs the QUBE(PO)-style partial-order engine
// by default; -mode=to selects the QUBE(TO) total-order configuration,
// prenexing a tree input first with -strategy.
//
// Usage:
//
//	qbfsolve [flags] [file.qdimacs]
//
// Observability: -trace FILE streams every solver event (decisions,
// conflicts, learning, restarts, …) as JSONL for `qbfstat trace`;
// -metrics-addr serves expvar event counters and pprof endpoints over
// HTTP while solving; -profile PREFIX captures CPU and heap profiles.
//
// Exit status: 10 when the formula is TRUE, 20 when FALSE (the SAT solver
// convention), 1 on errors. A governed stop exits with a code naming the
// stop reason: 30 timeout, 31 node limit, 32 memory limit, 33 cancelled
// (SIGINT/SIGTERM), 34 contained solver panic. On SIGINT or SIGTERM the
// solver stops at its next propagation fixpoint and the partial statistics
// are still printed under -stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/result"
	"repro/internal/telemetry"
)

func main() {
	mode := flag.String("mode", "po", "solver mode: po (partial order) or to (total order)")
	strategy := flag.String("strategy", "eu-au", "prenexing strategy for -mode=to on tree inputs: eu-au, eu-ad, ed-au, ed-ad")
	timeout := flag.Duration("timeout", 0, "per-solve time limit (0 = none)")
	nodes := flag.Int64("nodes", 0, "decision limit (0 = none)")
	mem := flag.Int64("mem", 0, "learned-constraint memory limit in MiB (0 = none)")
	noCl := flag.Bool("no-clause-learning", false, "disable nogood learning")
	noCu := flag.Bool("no-cube-learning", false, "disable good learning")
	noPure := flag.Bool("no-pure", false, "disable pure literal fixing")
	miniscope := flag.Bool("miniscope", false, "minimize quantifier scopes before solving (Section VII.D)")
	stats := flag.Bool("stats", false, "print search statistics")
	witness := flag.Bool("witness", false, "on TRUE, print the outermost existential assignment (a full model for SAT inputs)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to FILE (summarize with `qbfstat trace FILE`)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar event counters and pprof on ADDR (e.g. localhost:6060) while solving")
	profile := flag.String("profile", "", "capture CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()

	q, err := readInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	if *miniscope {
		q = prenex.Miniscope(q)
	}

	obs, err := setupObservability(*tracePath, *metricsAddr, *profile)
	if err != nil {
		fail(err)
	}

	opt := core.Options{
		TimeLimit:             *timeout,
		NodeLimit:             *nodes,
		MemLimit:              *mem << 20,
		DisableClauseLearning: *noCl,
		DisableCubeLearning:   *noCu,
		DisablePureLiterals:   *noPure,
		Telemetry:             obs.Tracer,
	}
	switch *mode {
	case "po":
		opt.Mode = core.ModePartialOrder
	case "to":
		opt.Mode = core.ModeTotalOrder
		if !q.Prefix.IsPrenex() {
			s, err := prenex.ParseStrategy(*strategy)
			if err != nil {
				fail(err)
			}
			q = prenex.Apply(q, s)
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	solver, err := core.NewSolver(q, opt)
	if err != nil {
		fail(err)
	}
	// SIGINT/SIGTERM cancel the context; the solver notices at its next
	// propagation fixpoint and returns UNKNOWN/cancelled with the partial
	// statistics intact instead of the process dying mid-search.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	r, solveErr := solver.SafeSolve(ctx)
	st := solver.Stats()
	finishObservability(obs)
	fmt.Println(r)
	if solveErr != nil {
		fmt.Fprintln(os.Stderr, "qbfsolve: solver panic contained:", solveErr)
	} else if r == core.Unknown && st.StopReason != core.StopNone {
		fmt.Fprintf(os.Stderr, "qbfsolve: stopped: %v\n", st.StopReason)
	}
	if *witness && r == core.True {
		if model, ok := solver.Witness(); ok {
			printWitness(model, q.MaxVar())
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr,
			"decisions=%d propagations=%d pures=%d conflicts=%d solutions=%d learned-clauses=%d learned-cubes=%d backjumps=%d restarts=%d fixpoints=%d peak-learned-bytes=%d mem-reductions=%d time=%v\n",
			st.Decisions, st.Propagations, st.PureAssignments, st.Conflicts,
			st.Solutions, st.LearnedClauses, st.LearnedCubes, st.Backjumps,
			st.Restarts, st.Fixpoints, st.PeakLearnedBytes, st.MemReductions, st.Time)
	}
	os.Exit(result.ExitCode(r, st.StopReason))
}

// setupObservability wires the exporters requested by the -trace,
// -metrics-addr and -profile flags. finishObservability must run before
// the process exits (os.Exit skips deferred calls, so main calls it
// explicitly).
func setupObservability(tracePath, metricsAddr, profilePrefix string) (*telemetry.Observability, error) {
	obs, err := telemetry.Setup(tracePath, metricsAddr, profilePrefix)
	if err != nil {
		return nil, err
	}
	if obs.Addr != "" {
		fmt.Fprintf(os.Stderr, "qbfsolve: metrics and pprof at http://%s/debug/\n", obs.Addr)
	}
	return obs, nil
}

func finishObservability(obs *telemetry.Observability) {
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "qbfsolve:", err)
	}
}

func printWitness(model map[qbf.Var]bool, maxVar int) {
	fmt.Print("v")
	for v := qbf.MinVar; v.Int() <= maxVar; v++ {
		if val, has := model[v]; has {
			if val {
				fmt.Printf(" %d", v)
			} else {
				fmt.Printf(" -%d", v)
			}
		}
	}
	fmt.Println(" 0")
}

func readInput(path string) (*qbf.QBF, error) {
	if path == "" || path == "-" {
		return qdimacs.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qdimacs.Read(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfsolve:", err)
	os.Exit(1)
}
