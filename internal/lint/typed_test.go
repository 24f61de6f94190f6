package lint

// Tests for the typed rules (L10, L12, L15) and the build-tag variant
// passes that feed them. Fixtures here are type-checked for real:
// module-internal imports resolve against the fixture tree, stdlib
// imports (context, os, io) go through the shared source importer, so
// the rules see genuine types.Info rather than parsed-only ASTs.

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestL10FiresOnContextField(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import "context"
type task struct {
	ctx  context.Context
	name string
}
func use(t task) context.Context { return t.ctx }
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L10"]; got != 1 {
		t.Fatalf("L10 findings = %d, want 1: %v", got, fs)
	}
}

func TestL10ExemptMainTestsParamsAndAllows(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"cmd/tool/main.go": `package main
import "context"
type app struct{ ctx context.Context } // cmd wiring may hold its root
func main() { _ = app{} }
`,
		"internal/models/x_test.go": `package models
import "context"
type harness struct{ ctx context.Context }
`,
		"internal/models/x.go": `package models
import "context"
func ok(ctx context.Context) context.Context { return ctx } // parameters are the point
type carrier struct {
	//lint:allow L10 request-scoped carrier crossing a queue
	ctx context.Context
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL12FiresOnUnstoppableGoroutines(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func spin(work func()) {
	go func() {
		for {
			work()
		}
	}()
}
func loop() {
	for {
	}
}
func named() {
	go loop()
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L12"]; got != 2 {
		t.Fatalf("L12 findings = %d, want 2 (literal + named callee): %v", got, fs)
	}
}

func TestL12FiresOnExternalCalleeWithoutSignal(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/ext/ext.go": `package ext
func Forever() {
	for {
	}
}
`,
		"internal/models/x.go": `package models
import "repro/internal/ext"
func launch() {
	go ext.Forever()
}
`,
	})
	fs := run(t, r, root)
	if got := rulesFired(fs)["L12"]; got != 1 {
		t.Fatalf("L12 findings = %d, want 1 (external callee, no signal at call site): %v", got, fs)
	}
}

func TestL12AcceptsCancellableShapes(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import "context"
func viaCtx(ctx context.Context, work func()) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
				work()
			}
		}
	}()
}
func viaDone(done chan struct{}, work func()) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work()
			}
		}
	}()
}
func drain(ch chan int) {
	go func() {
		for v := range ch { // range over a channel ends when it closes
			_ = v
		}
	}()
}
func namedWithBody(done chan struct{}) {
	go waiter(done)
}
func waiter(done chan struct{}) {
	<-done
}
func externalWithChanArg(ch chan int, sink func(chan int)) {
	go sink(ch) // channel at the call site: the callee can be stopped
}
`,
		"internal/models/x_test.go": `package models
func testHelper(work func()) {
	go func() { // tests may spin freely
		for {
			work()
		}
	}()
}
`,
		"cmd/tool/main.go": `package main
func main() {
	go func() { // package main owns the process lifetime
		for {
		}
	}()
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL12Allow(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func spin() {
	//lint:allow L12 process-lifetime janitor, dies with the process by design
	go func() {
		for {
		}
	}()
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("suppressed L12 still reported: %v", fs)
	}
}

func TestL15FiresOnDiscardedSyncAndClose(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import "os"
func write(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	f.Sync()
	_ = f.Close()
	return nil
}
`,
	})
	fs := run(t, r, root)
	// Three discards: the statement-position Close on the error path, the
	// statement-position Sync, and the blank-assigned Close.
	if got := rulesFired(fs)["L15"]; got != 3 {
		t.Fatalf("L15 findings = %d, want 3: %v", got, fs)
	}
}

func TestL15ExemptDeferCheckedMainTestsAndOtherClosers(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import (
	"bytes"
	"io"
	"os"
)
func read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // deferred cleanup on a read path is the idiom
	return io.ReadAll(f)
}
func write(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil { // checked: fine
		return err
	}
	return f.Close() // returned: fine
}
func other(r io.ReadCloser) {
	r.Close() // not an *os.File: another rule's business
	var buf bytes.Buffer
	buf.Write(nil) // same-named methods elsewhere stay silent
}
`,
		"internal/models/x_test.go": `package models
import "os"
func scratch(f *os.File) {
	f.Close() // tests may discard freely
}
`,
		"cmd/tool/main.go": `package main
import "os"
func main() {
	f, _ := os.Create("x")
	f.Close() // package main is not library code
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
}

func TestL15Allow(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import "os"
func bestEffort(f *os.File) {
	f.Sync() //lint:allow L15 best-effort flush on the shutdown path
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("suppressed L15 still reported: %v", fs)
	}
}

func TestAllowMultiRuleTypedAndSyntactic(t *testing.T) {
	// One line violating both L7 (library print) and L10 (context field),
	// suppressed by a single multi-rule directive.
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
import (
	"context"
	"fmt"
)
func f() {
	type carrier struct{ ctx context.Context }; fmt.Println(carrier{}) //lint:allow L7,L10 demo of a deliberately unsound line
}
`,
	})
	if fs := run(t, r, root); len(fs) != 0 {
		t.Fatalf("multi-rule allow failed: %v", fs)
	}
}

func TestAllowUnknownRuleWarns(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func f() {
	panic("boom") //lint:allow L99 typo for L3
}
`,
	})
	rep := runReport(t, r, root)
	// The typo silences nothing: the L3 finding must survive, and the
	// unknown name must surface as a warning.
	if got := rulesFired(rep.Findings)["L3"]; got != 1 {
		t.Fatalf("L3 findings = %d, want 1 (L99 allow must not suppress): %v", got, rep.Findings)
	}
	if len(rep.Warnings) != 1 || rep.Warnings[0].Rule != "allow" {
		t.Fatalf("warnings = %v, want one unknown-rule warning", rep.Warnings)
	}
	if !strings.Contains(rep.Warnings[0].Message, "L99") {
		t.Fatalf("warning does not name the unknown rule: %v", rep.Warnings[0])
	}
}

func TestAllowKnownRuleDoesNotWarn(t *testing.T) {
	r, root := fixtureModule(t, map[string]string{
		"internal/models/x.go": `package models
func f() {
	panic("boom") //lint:allow L3 fine
}
`,
	})
	rep := runReport(t, r, root)
	if len(rep.Findings) != 0 || len(rep.Warnings) != 0 {
		t.Fatalf("findings=%v warnings=%v, want none", rep.Findings, rep.Warnings)
	}
}

func TestTagVariantsReportOnceAndOrphansStaySyntactic(t *testing.T) {
	// Every file is type-checked under each DefaultTagSets variant it
	// matches. A qbfdebug-only file is seen only by the qbfdebug pass, its
	// !qbfdebug twin by the default and qbfnotrace passes, the untagged
	// file by all three; each violation must still be reported once. A
	// file no variant builds is an orphan: syntactic rules only.
	r, root := fixtureModule(t, map[string]string{
		"internal/models/debug_on.go": `//go:build qbfdebug

package models
import "context"
type onCarrier struct{ ctx context.Context }
`,
		"internal/models/debug_off.go": `//go:build !qbfdebug

package models
import "context"
type offCarrier struct{ ctx context.Context }
`,
		"internal/models/common.go": `package models
import "context"
type carrier struct{ ctx context.Context }
`,
		"internal/models/ignored.go": `//go:build ignore

package models
import "context"
type orphan struct{ ctx context.Context }
func f() { panic("orphan") }
`,
	})
	fs := run(t, r, root)
	want := map[string]string{
		"debug_on.go":  "L10",
		"debug_off.go": "L10",
		"common.go":    "L10",
		"ignored.go":   "L3",
	}
	if len(fs) != len(want) {
		t.Fatalf("findings = %v, want one per file: %v", fs, want)
	}
	for _, f := range fs {
		if rule := want[filepath.Base(f.File)]; f.Rule != rule {
			t.Fatalf("finding %v, want rule %q for its file", f, rule)
		}
		delete(want, filepath.Base(f.File))
	}
}
