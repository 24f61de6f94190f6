// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the code as it stands, checks every verdict, and
// prints each metric with its unit. The last line of standard output is
// the JSON result. See README.md for the workloads and the metrics.
//
//	perfbench --workload paper-batch --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. Any verdict that disagrees
// with the reference makes the run exit non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

const (
	wlBatch  = "paper-batch"
	wlLadder = "dia-ladder"
	wlServe  = "serve-mix"
)

var allWorkloads = []string{wlBatch, wlLadder, wlServe}

// defaultSeed is the seed reference.json was recorded at; heldOutSeed is
// reserved for confirming later performance claims and is not used while
// a change is being written.
const (
	defaultSeed = 1
	heldOutSeed = 20061
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// scratch is a directory inside the checkout for files the run
	// creates (the journal); it is removed before exit.
	scratch string
}

// errVerdict marks a verdict that disagrees with the reference. It aborts
// the run; it never counts as a failed operation.
var errVerdict = errors.New("verdict disagrees with the reference")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg     config
		secs    int
		trace   int
		refPath string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-batch, dia-ladder or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&secs, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&refPath, "write-reference", "", "record the default seed's reference verdicts to this file and exit")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.traced = trace == 1

	if refPath != "" {
		if err := writeReference(refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.scratch = dir

	rep := newReport(cfg.traced)
	switch cfg.workload {
	case wlBatch:
		err = runBatch(cfg, rep)
	case wlLadder:
		err = runLadder(cfg, rep)
	case wlServe:
		err = runServe(cfg, rep)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err == nil {
		var rss float64
		rss, err = peakRSSMB()
		rep.set("peak_rss_mb", rss)
	}
	if err == nil && rep.Attempted > 0 {
		rep.set("failed_share", float64(rep.Failed)/float64(rep.Attempted))
	}
	if err == nil {
		if miss := rep.missing(); len(miss) > 0 {
			err = fmt.Errorf("metrics not measured: %v", miss)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if errors.Is(err, errVerdict) {
			rep.Correct = false
			rep.write(os.Stdout) //nolint:errcheck // exiting non-zero either way
		}
		return 1
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
