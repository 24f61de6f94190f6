// Command qbfbench regenerates the paper's experimental analysis (Section
// VII): Table I rows and the data series behind Figures 3–7, at a
// configurable scale.
//
// Suites:
//
//	ncf       — Table I rows 1–4 and Figure 3 (nested counterfactuals)
//	fpv       — Table I row 5 and Figure 4
//	dia       — Table I row 6 and Figure 5
//	prob      — Table I row 7 and Figure 7 (probabilistic class)
//	fixed     — Table I row 8 and Figure 7 (fixed class)
//	scaling   — Figure 6 (counter and semaphore series)
//	all       — everything above
//
// Scatter CSVs land in -out (default "results/"). Performance is measured
// by perfbench (perfbench/README.md), not here.
//
// Example:
//
//	qbfbench -suite all -scale default -out results/
//
// A SIGINT or SIGTERM cancels the campaign cooperatively: in-flight solves
// stop at their next propagation fixpoint, the tables and CSVs are written
// from whatever completed, and the process exits 130. One crashing or
// limit-stopped instance never takes the campaign down — contained
// failures are listed after the tables and the exit status is 1 when any
// occurred (0 otherwise).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dia"
	"repro/internal/models"
	"repro/internal/prenex"
	"repro/internal/telemetry"
)

// plotFigures enables ASCII figure rendering (the -plot flag).
var plotFigures bool

// campaignFailures counts contained per-instance failures across suites.
var campaignFailures int

func main() {
	suite := flag.String("suite", "all", "suite: ncf, fpv, dia, prob, fixed, scaling, all")
	scaleName := flag.String("scale", "default", "experiment scale: smoke, default, full")
	outDir := flag.String("out", "results", "directory for CSV artifacts")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel solver instances")
	timeout := flag.Duration("timeout", 0, "override the scale's per-solve budget")
	mem := flag.Int64("mem", 0, "per-solve learned-constraint memory limit in MiB (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts with doubled budgets after a limit stop")
	plot := flag.Bool("plot", false, "render ASCII versions of the figures to stdout")
	tracePath := flag.String("trace", "", "write a JSONL solver-event trace to FILE (summarize with `qbfstat trace FILE`)")
	metricsAddr := flag.String("metrics-addr", "", "serve expvar event counters and pprof on ADDR while the campaign runs")
	profile := flag.String("profile", "", "capture CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	flag.Parse()
	plotFigures = *plot

	scale, err := pickScale(*scaleName)
	if err != nil {
		fail(err)
	}
	if *timeout > 0 {
		scale.Timeout = *timeout
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	// SIGINT/SIGTERM wind the campaign down: every in-flight and pending
	// solve returns UNKNOWN/cancelled at its next poll, the results written
	// so far are kept, and qbfbench exits 130 after reporting them.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	obs, err := telemetry.Setup(*tracePath, *metricsAddr, *profile)
	if err != nil {
		fail(err)
	}
	if obs.Addr != "" {
		fmt.Fprintf(os.Stderr, "qbfbench: metrics and pprof at http://%s/debug/\n", obs.Addr)
	}
	cfg := bench.Config{
		Timeout:  scale.Timeout,
		MemLimit: *mem << 20,
		Workers:  *workers,
		Retry:    bench.RetryPolicy{Attempts: *retries},
		SolverOptions: core.Options{
			Telemetry: obs.Tracer,
		},
	}

	var rows []bench.TableRow
	run := func(name string) {
		switch name {
		case "ncf":
			rows = append(rows, runNCF(ctx, scale, cfg, *outDir)...)
		case "fpv":
			rows = append(rows, runSimple(ctx, "FPV", bench.FPVSuite(scale), scale, cfg, filepath.Join(*outDir, "fig4_fpv_scatter.csv")))
		case "dia":
			rows = append(rows, runSimple(ctx, "DIA", bench.DIASuite(scale), scale, cfg, filepath.Join(*outDir, "fig5_dia_scatter.csv")))
		case "prob":
			rows = append(rows, runSimple(ctx, "PROB", bench.EvalSuite(scale, false), scale, cfg, filepath.Join(*outDir, "fig7_prob_scatter.csv")))
		case "fixed":
			rows = append(rows, runSimple(ctx, "FIXED", bench.EvalSuite(scale, true), scale, cfg, filepath.Join(*outDir, "fig7_fixed_scatter.csv")))
		case "scaling":
			runScaling(scale, *outDir)
		default:
			fail(fmt.Errorf("unknown suite %q", name))
		}
	}
	if *suite == "all" {
		for _, s := range []string{"ncf", "fpv", "dia", "prob", "fixed", "scaling"} {
			run(s)
		}
	} else {
		run(*suite)
	}

	if len(rows) > 0 {
		fmt.Println("\nTable I (regenerated, scaled):")
		bench.WriteTable(os.Stdout, rows)
	}
	// os.Exit skips deferred calls, so flush the trace/profiles explicitly
	// before every exit path.
	if err := obs.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "qbfbench:", err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "qbfbench: interrupted — tables and CSVs above are partial")
		os.Exit(130)
	}
	if campaignFailures > 0 {
		fmt.Fprintf(os.Stderr, "qbfbench: %d instance(s) failed (contained); aggregates exclude them\n", campaignFailures)
		os.Exit(1)
	}
}

// reportFailures lists the contained per-instance failures of a suite run
// so a crash in one instance is visible without poisoning the aggregates.
func reportFailures(results []bench.RunResult) {
	for _, r := range bench.Errored(results) {
		campaignFailures++
		fmt.Fprintf(os.Stderr, "  FAILED %s: %v\n", r.Name, r.Failure())
	}
}

func pickScale(name string) (bench.Scale, error) {
	switch name {
	case "smoke":
		return bench.ScaleSmoke, nil
	case "default":
		return bench.ScaleDefault, nil
	case "full":
		return bench.ScaleFull, nil
	}
	return bench.Scale{}, fmt.Errorf("unknown scale %q", name)
}

// runNCF reproduces Table I rows 1–4 (one per strategy) and the Figure 3
// median scatter against QUBE(TO)*.
func runNCF(ctx context.Context, scale bench.Scale, cfg bench.Config, outDir string) []bench.TableRow {
	insts := bench.NCFSuite(scale)
	fmt.Printf("NCF: %d instances × (1 PO + 4 TO) solves, budget %v each\n",
		len(insts), cfg.Timeout)
	start := time.Now()
	results := bench.RunSuite(ctx, insts, cfg)
	fmt.Printf("NCF done in %v\n", time.Since(start).Round(time.Second))
	reportFailures(results)

	var rows []bench.TableRow
	for _, s := range prenex.Strategies {
		rows = append(rows, bench.Aggregate("NCF", results, s, scale.Margin()))
	}
	writeCSV(filepath.Join(outDir, "fig3_ncf_scatter.csv"),
		bench.MedianScatter(results, prenex.EUpAUp, true))
	return rows
}

// runSimple handles the single-strategy suites (FPV, DIA, PROB, FIXED).
func runSimple(ctx context.Context, name string, insts []bench.Instance, scale bench.Scale, cfg bench.Config, csvPath string) bench.TableRow {
	fmt.Printf("%s: %d instances, budget %v each\n", name, len(insts), cfg.Timeout)
	start := time.Now()
	results := bench.RunSuite(ctx, insts, cfg)
	fmt.Printf("%s done in %v\n", name, time.Since(start).Round(time.Second))
	reportFailures(results)
	writeCSV(csvPath, bench.Scatter(results, prenex.EUpAUp, false))
	return bench.Aggregate(name, results, prenex.EUpAUp, scale.Margin())
}

// runScaling reproduces Figure 6: counter<N> (growing diameter) and
// semaphore<N> (fixed diameter, growing size) series for both solvers.
func runScaling(scale bench.Scale, outDir string) {
	series := map[string][]bench.ScalingPoint{}
	po := dia.SolverPO(context.Background(), core.Options{TimeLimit: scale.Timeout})
	to := dia.SolverTO(context.Background(), prenex.EUpAUp, core.Options{TimeLimit: scale.Timeout})

	for n := 2; n <= scale.DIAMaxBits; n++ {
		m := models.Counter(n)
		series["PO"] = append(series["PO"], bench.ScalingSeries(m, m.KnownDiameter+1, po)...)
		series["TO"] = append(series["TO"], bench.ScalingSeries(m, m.KnownDiameter+1, to)...)
	}
	for n := 1; n <= 2*scale.DIAMaxBits+1; n += 2 {
		m := models.Semaphore(n)
		series["PO"] = append(series["PO"], bench.ScalingSeries(m, m.KnownDiameter+1, po)...)
		series["TO"] = append(series["TO"], bench.ScalingSeries(m, m.KnownDiameter+1, to)...)
	}

	path := filepath.Join(outDir, "fig6_scaling.csv")
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	bench.WriteScalingCSV(f, series)
	fmt.Printf("scaling series written to %s\n", path)
	if plotFigures {
		bench.RenderScaling(os.Stdout, series, "Figure 6 (all families)")
	}
}

func writeCSV(path string, pts []bench.ScatterPoint) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	bench.WriteScatterCSV(f, pts)
	above, below, on := bench.ScatterSummary(pts)
	fmt.Printf("  scatter %s: %d above diagonal (PO wins), %d below, %d on\n",
		filepath.Base(path), above, below, on)
	if plotFigures {
		bench.RenderScatter(os.Stdout, pts, filepath.Base(path))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfbench:", err)
	os.Exit(1)
}
