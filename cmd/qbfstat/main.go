// Command qbfstat reports structural statistics of a QBF instance read
// from a file or stdin (QDIMACS or QTREE): variable/clause counts, prefix
// level, block structure, the PO/TO share of footnote 9, and the effect of
// miniscoping and preprocessing. With -dot it emits the quantifier tree in
// Graphviz format instead.
//
// The trace subcommand summarizes a JSONL solver-event trace written by
// qbfsolve/qbfbench/qbfd with -trace: total events, per-kind counts, the
// decision distribution over prefix depth, and —
// for qbfd traces with the session journal enabled — the journal line
// (appends, recovered sessions, compactions, truncated bytes, degrades).
//
// Usage:
//
//	qbfstat [-miniscope] [-preprocess] [-dot] [file]
//	qbfstat trace [trace.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/prenex"
	"repro/internal/preprocess"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	doMini := flag.Bool("miniscope", false, "also report the miniscoped form")
	doPrep := flag.Bool("preprocess", false, "also report the preprocessed form")
	doDot := flag.Bool("dot", false, "emit the quantifier tree as Graphviz DOT and exit")
	flag.Parse()

	var (
		q   *qbf.QBF
		err error
	)
	if path := flag.Arg(0); path == "" || path == "-" {
		q, err = qdimacs.Read(os.Stdin)
	} else {
		f, ferr := os.Open(path)
		if ferr != nil {
			fail(ferr)
		}
		defer f.Close()
		q, err = qdimacs.Read(f)
	}
	if err != nil {
		fail(err)
	}

	if *doDot {
		if err := qbf.WriteDOT(os.Stdout, q); err != nil {
			fail(err)
		}
		return
	}

	report("input", q)
	if *doMini {
		report("miniscoped", prenex.Miniscope(q))
	}
	if *doPrep {
		if isTrue, decided := preprocess.TrivialTruth(context.Background(), q, 2*time.Second); decided {
			fmt.Printf("trivial truth: DECIDED %v (Cadoli et al. [15])\n", isTrue)
		}
		if isFalse, decided := preprocess.TrivialFalsity(context.Background(), q, 2*time.Second); decided {
			fmt.Printf("trivial falsity: DECIDED false=%v\n", isFalse)
		}
		out, res := preprocess.Run(q, preprocess.Options{})
		if res.Decided {
			fmt.Printf("preprocessed: DECIDED %v (units=%d pures=%d reduced=%d)\n",
				res.Value, res.UnitsAssigned, res.PuresAssigned, res.LiteralsReduced)
		} else {
			report("preprocessed", out)
			fmt.Printf("  units=%d pures=%d reduced-literals=%d tautologies=%d duplicates=%d subsumed=%d\n",
				res.UnitsAssigned, res.PuresAssigned, res.LiteralsReduced,
				res.TautologiesGone, res.DuplicatesGone, res.Subsumed)
		}
	}
}

// runTrace implements `qbfstat trace [file]`: replay a JSONL event trace
// and print its summary. A corrupt line (truncated write, unknown event
// kind) fails with its line number rather than summarizing silently
// wrong numbers.
func runTrace(args []string) {
	fs := flag.NewFlagSet("qbfstat trace", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: qbfstat trace [trace.jsonl]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	in := os.Stdin
	if path := fs.Arg(0); path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	sum, err := telemetry.Summarize(in)
	if err != nil {
		fail(err)
	}
	sum.WriteText(os.Stdout)
}

func report(label string, q *qbf.QBF) {
	s := q.Stats()
	fmt.Printf("%s: vars=%d (∃%d ∀%d) clauses=%d literals=%d level=%d blocks=%d prenex=%v po/to-share=%.3f\n",
		label, s.Vars, s.Existentials, s.Universals, s.Clauses, s.Literals,
		s.PrefixLevel, s.Blocks, s.Prenex, prenex.POTOShare(q))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qbfstat:", err)
	os.Exit(1)
}
