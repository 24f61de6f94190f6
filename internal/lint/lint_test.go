package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureModule materializes a throwaway module whose files only need to
// parse (they are never compiled), writes the given path→source map under a
// temp dir with a go.mod claiming module path "repro", and returns a runner
// rooted there. Violations seeded in fixtures therefore never touch the
// real build.
func fixtureModule(t *testing.T, files map[string]string) (*Runner, string) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRunner(root)
	if err != nil {
		t.Fatal(err)
	}
	return r, root
}

func run(t *testing.T, r *Runner, root string) []Finding {
	t.Helper()
	rep, err := r.Run([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Findings
}

// runReport is run's sibling for tests that also assert on warnings.
func runReport(t *testing.T, r *Runner, root string) Report {
	t.Helper()
	rep, err := r.Run([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// rulesFired collects the distinct rule names among findings.
func rulesFired(fs []Finding) map[string]int {
	m := map[string]int{}
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

func TestL1FiresOnTimestampComparison(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/prenex/x.go": `package prenex
import "repro/internal/qbf"
func bad(p *qbf.Prefix, a, b qbf.Var) bool {
	if p.D(a) < p.D(b) && p.D(b) <= p.F(a) {
		return true
	}
	return (p.F(a)) >= p.D(b)
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L1"]; got != 3 {
		t.Fatalf("L1 findings = %d, want 3: %v", got, fs)
	}
}

func TestL1ExemptInsideQBF(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/qbf/x.go": `package qbf
func (p *Prefix) interval(a, b Var) bool { return p.D(a) < p.D(b) }
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("findings inside internal/qbf: %v", fs)
	}
}

func TestL1IgnoresNonComparisonUse(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/prenex/x.go": `package prenex
import "repro/internal/qbf"
func ok(p *qbf.Prefix, a qbf.Var) int { return p.D(a) + p.F(a) }
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL2FiresOnRawConversions(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import q "repro/internal/qbf"
func bad(n int) (q.Lit, q.Var) { return q.Lit(n), q.Var(n) }
func ok(n int) (q.Lit, q.Var)  { return q.LitOf(n), q.VarOf(n) }
func slices() []q.Var          { return []q.Var(nil) }
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L2"]; got != 2 {
		t.Fatalf("L2 findings = %d, want 2 (aliased import, no slice-conversion false positive): %v", got, fs)
	}
}

func TestL2Exemptions(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/qdimacs/x.go": `package qdimacs
import "repro/internal/qbf"
func parse(n int) qbf.Lit { return qbf.Lit(n) }
`,
		"internal/core/x_test.go": `package core
import "repro/internal/qbf"
func helper(n int) qbf.Var { return qbf.Var(n) }
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("exempt files reported: %v", fs)
	}
}

func TestL3FiresOnLibraryPanic(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func bad(x int) {
	if x < 0 {
		panic("negative")
	}
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L3"]; got != 1 {
		t.Fatalf("L3 findings = %d, want 1: %v", got, fs)
	}
}

func TestL3Exemptions(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"cmd/tool/main.go":        "package main\nfunc main() { panic(\"cli\") }\n",
		"internal/qbf/x.go":       "package qbf\nfunc f() { panic(\"foundation\") }\n",
		"internal/invariant/x.go": "package invariant\nfunc Violated() { panic(\"here\") }\n",
		"internal/core/x_test.go": "package core\nfunc g() { panic(\"test\") }\n",
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("exempt panics reported: %v", fs)
	}
}

func TestL4FiresOnStringAccumulation(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "fmt"
func bad(xs []int) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf("%d ", x)
	}
	s += "done"
	return fmt.Sprint(s)
}
`,
	})
	fs := run(t, r, root)
	got := rulesFired(fs)["L4"]
	// Three sites: the += with Sprintf (flagged as += and as a Sprint*
	// call), the += with a literal, and the fmt.Sprint.
	if got != 4 {
		t.Fatalf("L4 findings = %d, want 4: %v", got, fs)
	}
}

func TestL4ScopedToCore(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import "fmt"
func ok(x int) string { return fmt.Sprintf("%d", x) }
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("L4 fired outside internal/core: %v", fs)
	}
}

func TestAllowSuppresses(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "fmt"
func traced(n int) {
	trace(fmt.Sprintf("n=%d", n)) //lint:allow L4 trace is debug-only
	//lint:allow L4 building a report, off the solver path
	report := fmt.Sprintf("%d", n)
	_ = report
}
func trace(string) {}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("suppressed findings still reported: %v", fs)
	}
}

func TestAllowIsRuleSpecific(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "fmt"
func f(n int) string {
	return fmt.Sprintf("%d", n) //lint:allow L3 wrong rule name
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L4"]; got != 1 {
		t.Fatalf("allow for L3 must not silence L4: %v", fs)
	}
}

func TestAllowMultipleRules(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "fmt"
func f(n int) string {
	//lint:allow L3,L4 both on the next line
	panic(fmt.Sprintf("%d", n))
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("multi-rule allow failed: %v", fs)
	}
}

func TestL5FiresOnBareGoroutine(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/bench/x.go": `package bench
func bad(work func()) {
	go func() {
		work()
	}()
	go (func() { work() })()
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L5"]; got != 2 {
		t.Fatalf("L5 findings = %d, want 2: %v", got, fs)
	}
}

func TestL5AcceptsRecoveredGoroutine(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/bench/x.go": `package bench
func ok(work func()) {
	go func() {
		defer func() {
			if p := recover(); p != nil {
				_ = p
			}
		}()
		work()
	}()
	go work() // named callee: checked at its definition, not the go site
}
`,
	})
	// The fixture is about recover, not cancellability: L12 may fire.
	if fs := run(t, r, root); rulesFired(fs)["L5"] != 0 {
		t.Fatalf("recovered goroutine reported: %v", fs)
	}
}

func TestL5RejectsIneffectiveRecover(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/bench/x.go": `package bench
func bad(work func(func())) {
	go func() {
		// recover in a non-deferred nested literal runs on a callback
		// frame and contains nothing.
		work(func() { recover() })
	}()
	go func() {
		defer recover() // nil by spec: recover must be called BY a deferred function
		work(nil)
	}()
	go func() {
		defer func() {
			// recover buried one literal deeper than the deferred frame.
			f := func() { recover() }
			f()
		}()
		work(nil)
	}()
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L5"]; got != 3 {
		t.Fatalf("L5 findings = %d, want 3: %v", got, fs)
	}
}

func TestL5AcceptsDeferInsideBlock(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/bench/x.go": `package bench
func ok(work func(), guard bool) {
	go func() {
		if guard {
			// deferred from a block, still the goroutine's own frame.
			defer func() { _ = recover() }()
		}
		work()
	}()
}
`,
	})
	// The fixture is about recover, not cancellability: L12 may fire.
	if fs := run(t, r, root); rulesFired(fs)["L5"] != 0 {
		t.Fatalf("frame-level deferred recover reported: %v", fs)
	}
}

func TestL5ScopedToBench(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func f(work func()) {
	go func() { work() }()
}
`,
		"internal/bench/x_test.go": `package bench
func g(work func()) {
	go func() { work() }()
}
`,
	})
	// The fixture is about L5 scoping, not cancellability: L12 may fire.
	if fs := run(t, r, root); rulesFired(fs)["L5"] != 0 {
		t.Fatalf("L5 fired outside non-test internal/bench: %v", fs)
	}
}

func TestL6FiresOnMangledOpeners(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models

/// doubled opener from a careless edit
//// banner made of slashes
//* flattened block opener
// / opener split across the slash
//    / same split, extra indentation
func f() {}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L6"]; got != 5 {
		t.Fatalf("L6 findings = %d, want 5: %v", got, fs)
	}
}

func TestL6IgnoresLegitimateComments(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models

// plain comment
// path mention: /root/repo/x.go is fine
// /root/leading/path is fine too (first token is not a lone slash)
// url https://example.com/a/b
// ---------------------------------------------------------------------------
//go:generate echo directives are untouched
/* block comments parse or they do not */
func f() {}
`,
		"internal/models/x_test.go": `package models

// tests follow the same comment hygiene
func g() {}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("false positives: %v", fs)
	}
}

func TestL6Allow(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models

//lint:allow L6 ascii-art needs the slashes
/// deliberately tripled
func f() {}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("suppressed L6 still reported: %v", fs)
	}
}

func TestFindingPositionsAndString(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": "package models\n\nfunc f() {\n\tpanic(\"x\")\n}\n",
	})
	fs := run(t, r, root)
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want exactly one", fs)
	}
	f := fs[0]
	if f.Line != 4 || f.Col != 2 {
		t.Fatalf("position %d:%d, want 4:2", f.Line, f.Col)
	}
	s := f.String()
	if !strings.Contains(s, "x.go:4:2:") || !strings.Contains(s, "[L3]") {
		t.Fatalf("String() = %q", s)
	}
}

func TestWalkSkipsTestdata(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go":                "package models\nfunc ok() {}\n",
		"internal/models/testdata/fixture.go": "package fixture\nfunc f() { panic(\"seeded\") }\n",
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("testdata was linted: %v", fs)
	}
}

func TestParseModulePath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"module repro\n\ngo 1.22\n", "repro"},
		{"// comment\nmodule example.com/x/y\n", "example.com/x/y"},
		{"module \"quoted/path\"\n", "quoted/path"},
		{"go 1.22\n", ""},
	}
	for _, c := range cases {
		if got := parseModulePath(c.in); got != c.want {
			t.Errorf("parseModulePath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestL7FiresOnLibraryPrints(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/telemetry/x.go": `package telemetry
import (
	"fmt"
	"log"
)
func bad(n int) {
	fmt.Println("solving", n)
	fmt.Printf("n=%d\n", n)
	log.Printf("n=%d", n)
	log.Fatal("dead")
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L7"]; got != 4 {
		t.Fatalf("L7 findings = %d, want 4: %v", got, fs)
	}
}

func TestL7ExemptMainTestsAndWriters(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"cmd/tool/main.go": `package main
import "fmt"
func main() { fmt.Println("verdict") }
`,
		"internal/bench/x_test.go": `package bench
import "fmt"
func helper() { fmt.Println("debug") }
`,
		"internal/bench/x.go": `package bench
import (
	"fmt"
	"io"
	"os"
)
func table(w io.Writer) { fmt.Fprintf(w, "row\n") }
func report()           { fmt.Fprintln(os.Stderr, "contained failure") }
func allowed()          { fmt.Println("progress") } //lint:allow L7 campaign narration is this package's contract
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL8FiresOnLibraryContextRoots(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "context"
func bad() {
	ctx := context.Background()
	_ = ctx
	go func() { _ = context.TODO() }()
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L8"]; got != 2 {
		t.Fatalf("L8 findings = %d, want 2: %v", got, fs)
	}
}

func TestL8ExemptMainTestsAndAllows(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"cmd/tool/main.go": `package main
import "context"
func main() { _ = context.Background() }
`,
		"internal/core/x_test.go": `package core
import "context"
func helper() { _ = context.Background() }
`,
		"internal/core/x.go": `package core
import "context"
func edge(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background() //lint:allow L8 nil-context normalization at the API edge
}
func threaded(ctx context.Context) context.Context { return ctx }
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL8IgnoresNonRootContextCalls(t *testing.T) {
	// Derivation calls (WithCancel, WithTimeout, AfterFunc) thread an
	// existing context and are exactly what the rule steers toward.
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "context"
func derive(ctx context.Context) {
	c, stop := context.WithCancel(ctx)
	defer stop()
	_ = c
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL14FiresOnBareSleepInLoops(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
import "time"
func poll(ready func() bool) {
	for !ready() {
		time.Sleep(10 * time.Millisecond)
	}
	for _, d := range []time.Duration{1, 2} {
		time.Sleep(d)
	}
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L14"]; got != 2 {
		t.Fatalf("L14 findings = %d, want 2: %v", got, fs)
	}
}

func TestL14ExemptMainTestsNonLoopsAndAllows(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"cmd/tool/main.go": `package main
import "time"
func main() {
	for {
		time.Sleep(time.Second)
	}
}
`,
		"internal/core/x_test.go": `package core
import "time"
func helper() {
	for {
		time.Sleep(time.Millisecond)
	}
}
`,
		"internal/core/x.go": `package core
import "time"
func once() {
	time.Sleep(time.Millisecond) // not in a loop: L14 does not apply
}
func launcher() {
	for i := 0; i < 3; i++ {
		go func() { time.Sleep(time.Second) }() //lint:allow L12 fixture: L14 must ignore another frame's wait
	}
}
func settle() {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond) //lint:allow L14 fixed settling delay, no cancellation path exists
	}
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL14UnknownAllowListsRealRuleNames(t *testing.T) {
	// The unknown-rule warning enumerates the actual rule set; it must
	// include L14 and must not advertise the escape gate's L13 (which is
	// not an //lint:allow target).
	r, root := fixtureModule(t, map[string]string{
		"internal/core/x.go": `package core
func f() int {
	return 1 //lint:allow L99 bogus
}
`,
	})
	rep := runReport(t, r, root)
	if len(rep.Warnings) != 1 || rep.Warnings[0].Rule != "allow" {
		t.Fatalf("warnings = %v, want one allow warning", rep.Warnings)
	}
	msg := rep.Warnings[0].Message
	if !strings.Contains(msg, "L14") || strings.Contains(msg, "L13") {
		t.Fatalf("warning should list L14 but not L13: %q", msg)
	}
}
