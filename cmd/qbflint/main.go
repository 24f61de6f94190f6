// Command qbflint runs the project's static analysis rules over Go source
// files. It is stdlib-only and wired into scripts/check.sh as part of the
// verification gate.
//
// Usage:
//
//	qbflint [flags] [patterns...]
//
// Patterns are ./... (recursive), directories, or .go files; the default
// is ./... from the current directory. Every rule runs, and every pattern
// is type-checked with go/types under each build-tag variant before the
// rules run, so the typed rules (L10, L12, L15) see real type
// information. Exit status: 0 when clean, 1 when findings were reported,
// 2 on usage or processing errors. Warnings (//lint:allow directives
// naming unknown rules) go to stderr and do not affect the exit status.
//
// Flags:
//
//	-json            emit the report as JSON ({"findings":[...],"warnings":[...]})
//	-list            list the rules and exit
//	-gate hotpath    run the L13 allocation gate over the pattern dirs
//	                 instead of the lint rules (see internal/lint/escape)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/escape"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("qbflint", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit the report as JSON")
	list := fl.Bool("list", false, "list the rules and exit")
	gate := fl.String("gate", "", `run a compiler-assisted gate instead of the lint rules ("hotpath")`)
	if err := fl.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, r := range lint.DefaultRules() {
			fmt.Fprintf(stdout, "%s  %s\n", r.Name(), r.Doc())
		}
		fmt.Fprintf(stdout, "L13  %s-annotated functions must not allocate (compiler escape analysis; run via -gate hotpath)\n", escape.Directive)
		return 0
	}

	runner, err := lint.NewRunner(".")
	if err != nil {
		fmt.Fprintln(stderr, "qbflint:", err)
		return 2
	}

	switch *gate {
	case "":
		// fall through to the lint rules below
	case "hotpath":
		return runGate(fl.Args(), runner.ModuleRoot, *jsonOut, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "qbflint: unknown gate %q (have: hotpath)\n", *gate)
		return 2
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	report, err := runner.Run(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "qbflint:", err)
		return 2
	}

	if *jsonOut {
		if report.Findings == nil {
			report.Findings = []lint.Finding{}
		}
		if report.Warnings == nil {
			report.Warnings = []lint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "qbflint:", err)
			return 2
		}
	} else {
		for _, f := range report.Findings {
			fmt.Fprintln(stdout, f)
		}
	}
	for _, w := range report.Warnings {
		fmt.Fprintln(stderr, "qbflint: warning:", w)
	}
	if len(report.Findings) > 0 {
		return 1
	}
	return 0
}

// runGate executes the L13 hot-path allocation gate over the given
// package directories. Exit status mirrors the lint mode: 0 clean (or
// skipped with a stderr warning), 1 on violations, 2 on errors.
func runGate(dirs []string, moduleRoot string, jsonOut bool, stdout, stderr io.Writer) int {
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "qbflint: -gate hotpath needs package directories (e.g. ./internal/core)")
		return 2
	}
	rep, err := escape.Gate(dirs, escape.Config{ModuleRoot: moduleRoot})
	if err != nil {
		fmt.Fprintln(stderr, "qbflint:", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "qbflint:", err)
			return 2
		}
	} else {
		for _, v := range rep.Violations {
			fmt.Fprintln(stdout, v)
		}
	}
	if rep.Skipped {
		fmt.Fprintln(stderr, "qbflint: warning: hotpath gate skipped:", rep.SkipReason)
		return 0
	}
	if len(rep.Violations) > 0 {
		return 1
	}
	fmt.Fprintf(stderr, "qbflint: hotpath gate: %d annotated function(s) clean (%d compiler diagnostics inspected)\n",
		len(rep.Funcs), rep.Diagnostics)
	return 0
}
