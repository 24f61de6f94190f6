package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a fixture module and chdirs into it: run()
// resolves the module root from the working directory exactly as the
// real invocation from scripts/check.sh does.
func writeTree(t *testing.T, files map[string]string) {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for path, src := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(root)
}

// seededTree holds violations in two files whose walk order (b before z,
// models before telemetry) the golden output locks down.
func seededTree(t *testing.T) {
	writeTree(t, map[string]string{
		"internal/models/z.go": "package models\n\nfunc f() {\n\tpanic(\"one\")\n}\n",
		"internal/models/b.go": "package models\n\nfunc g() {\n\tpanic(\"two\")\n\tpanic(\"three\")\n}\n",
	})
}

func TestRunTextOutputIsDeterministicallyOrdered(t *testing.T) {
	seededTree(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("findings = %d, want 3:\n%s", len(lines), stdout.String())
	}
	// b.go's two findings in line order, then z.go.
	wantOrder := []struct{ file, pos string }{
		{"internal/models/b.go", ":4:"},
		{"internal/models/b.go", ":5:"},
		{"internal/models/z.go", ":4:"},
	}
	for i, w := range wantOrder {
		if !strings.Contains(lines[i], filepath.FromSlash(w.file)) || !strings.Contains(lines[i], w.pos) {
			t.Fatalf("line %d = %q, want %s%s", i, lines[i], w.file, w.pos)
		}
	}
	// A second run must produce byte-identical output.
	var again bytes.Buffer
	if code := run([]string{"./..."}, &again, &stderr); code != 1 {
		t.Fatalf("second run exit = %d", code)
	}
	if again.String() != stdout.String() {
		t.Fatalf("output not deterministic:\n--- first\n%s--- second\n%s", stdout.String(), again.String())
	}
}

func TestRunJSONShape(t *testing.T) {
	seededTree(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var rep struct {
		Findings []struct {
			Rule string `json:"rule"`
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
		} `json:"findings"`
		Warnings []any `json:"warnings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("output is not the report object: %v\n%s", err, stdout.String())
	}
	if len(rep.Findings) != 3 || rep.Findings[0].Rule != "L3" {
		t.Fatalf("findings = %+v", rep.Findings)
	}
	if rep.Warnings == nil {
		t.Fatal("warnings key must be present (empty array, not null)")
	}
}

func TestRunCleanTreeAndJSONEmptyArrays(t *testing.T) {
	writeTree(t, map[string]string{
		"internal/models/x.go": "package models\n\nfunc ok() {}\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, `"findings": []`) || !strings.Contains(out, `"warnings": []`) {
		t.Fatalf("clean JSON must carry empty arrays:\n%s", out)
	}
}

func TestRunUnknownAllowWarnsOnStderrButExitsZero(t *testing.T) {
	writeTree(t, map[string]string{
		"internal/models/x.go": "package models\n\n//lint:allow L99 typo\nfunc ok() {}\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (warnings are not findings); stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("warnings must not pollute stdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "warning") || !strings.Contains(stderr.String(), "L99") {
		t.Fatalf("stderr = %q, want an unknown-rule warning", stderr.String())
	}
}

func TestListIncludesGateRule(t *testing.T) {
	writeTree(t, map[string]string{})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	out := stdout.String()
	for _, rule := range []string{"L1", "L10", "L12", "L13", "L15"} {
		if !strings.Contains(out, rule+"  ") {
			t.Fatalf("-list output missing %s:\n%s", rule, out)
		}
	}
}

func TestUnknownGateIsUsageError(t *testing.T) {
	writeTree(t, map[string]string{})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gate", "nope", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "hotpath") {
		t.Fatalf("stderr should name the available gates: %s", stderr.String())
	}
}

func TestGateModeEndToEnd(t *testing.T) {
	writeTree(t, map[string]string{
		"hot/hot.go": `package hot

//qbf:hotpath
func Leak() *int {
	n := 41
	return &n
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gate", "hotpath", "./hot"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[L13]") || !strings.Contains(stdout.String(), "Leak") {
		t.Fatalf("stdout = %q", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-gate", "hotpath", "-json", "./hot"}, &stdout, &stderr); code != 1 {
		t.Fatalf("json gate exit = %d, want 1", code)
	}
	var rep struct {
		Violations []struct {
			Func string `json:"func"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("gate -json output: %v\n%s", err, stdout.String())
	}
	if len(rep.Violations) != 1 || rep.Violations[0].Func != "Leak" {
		t.Fatalf("violations = %+v", rep.Violations)
	}
}

func TestGateModeNeedsDirs(t *testing.T) {
	writeTree(t, map[string]string{})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gate", "hotpath"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
