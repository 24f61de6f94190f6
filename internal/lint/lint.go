// Package lint implements qbflint, a project-specific static analyzer
// for this repository. It is deliberately built on the standard library
// only (go/parser, go/types, go/importer): the module stays
// dependency-free while the driver still type-checks everything it
// analyzes.
//
// The driver expands a file set, groups it into per-package units, and
// type-checks each unit under every project build-tag variant
// (DefaultTagSets), so tag-gated files get the same coverage as the
// default build. Rules come in two shapes: syntactic rules that only
// read the AST (L1–L8 and L14, and the only coverage for files excluded
// under every tag set), and typed rules that also consult types.Info
// (L10, L12 and L15). Findings carry file:line:col positions,
// deduplicate across tag passes, and sort stably. A finding can be
// suppressed at its site with a comment of the form
//
//	//lint:allow RULE[,RULE] optional reason
//
// which silences the named rules on the comment's own line and on the
// line immediately below it (so it works both as a trailing comment and
// as a comment above the offending statement). Suppressions naming a
// rule the driver does not know are reported as warnings — a typo in an
// //lint:allow otherwise silences nothing while looking like it did.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Report is the outcome of one Run: findings fail the build, warnings
// (currently: //lint:allow directives naming unknown rules) do not.
type Report struct {
	Findings []Finding `json:"findings"`
	Warnings []Finding `json:"warnings"`
}

// File is the per-file context handed to rules.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Path is the file path as reported in findings (as given to Run).
	Path string
	// PkgPath is the import path of the enclosing package, derived from
	// the module path in go.mod and the file's directory.
	PkgPath string
	// IsTest reports whether the file name ends in _test.go.
	IsTest bool
	// QBFImportName is the local name under which the file imports
	// repro/internal/qbf ("" when it does not import it).
	QBFImportName string
	// Pkg and Info hold the type-check results for this file's
	// build-tag variant. Both are nil for files excluded under every
	// configured tag set; typed rules must not apply then.
	Pkg  *types.Package
	Info *types.Info

	// unit links back to the package variant the file was checked in
	// (nil for orphan files analyzed syntactically only).
	unit *unit
	// allow maps a line number to the set of rule names an //lint:allow
	// comment suppresses on that line.
	allow map[int]map[string]bool
}

// Allowed reports whether rule findings on the given line are suppressed.
func (f *File) Allowed(rule string, line int) bool {
	set := f.allow[line]
	return set != nil && (set[rule] || set["all"])
}

// TypeOf returns the type of an expression, nil when the file carries no
// type information or the expression was not reached by the checker.
func (f *File) TypeOf(e ast.Expr) types.Type {
	if f.Info == nil {
		return nil
	}
	return f.Info.TypeOf(e)
}

// Rule is one analyzer. Applies filters whole files (the exemption
// matrix lives there, including the f.Info != nil guard for typed
// rules); Check walks the AST and reports violations.
type Rule interface {
	Name() string // short identifier, e.g. "L1"
	Doc() string  // one-line description for -list
	Applies(f *File) bool
	Check(f *File, report func(pos token.Pos, msg string))
}

// Runner parses files and applies DefaultRules under every DefaultTagSets
// variant.
type Runner struct {
	Fset       *token.FileSet
	ModulePath string // module path from go.mod ("" outside a module)
	ModuleRoot string // directory containing go.mod

	parsed map[string]*ast.File
	allows map[string]*allowSet
}

// NewRunner locates the enclosing module of dir (walking upward to the
// nearest go.mod) and returns a runner for it.
func NewRunner(dir string) (*Runner, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath := findModule(abs)
	return &Runner{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleRoot: root,
		parsed:     map[string]*ast.File{},
		allows:     map[string]*allowSet{},
	}, nil
}

// findModule walks from dir toward the filesystem root looking for go.mod
// and returns the module root directory and module path. When no go.mod is
// found it returns dir itself and an empty module path.
func findModule(dir string) (root, modPath string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			return d, parseModulePath(string(data))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir, ""
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// Run expands the patterns ("./..." for a recursive walk, directories
// for their immediate .go files, explicit .go file paths), type-checks
// every build-tag variant, applies the rules, and returns the findings
// and warnings, each sorted by position. Parse errors abort the run;
// type errors do not (the build gate owns those — here partial
// information beats none).
func (r *Runner) Run(patterns []string) (Report, error) {
	paths, err := r.expand(patterns)
	if err != nil {
		return Report{}, err
	}
	for _, p := range paths {
		if _, err := r.parseFile(p); err != nil {
			return Report{}, err
		}
	}

	seen := map[Finding]bool{}
	covered := map[string]bool{}
	var findings []Finding
	for _, tags := range DefaultTagSets() {
		units := r.buildUnits(paths, tags)
		for _, u := range units {
			for _, f := range u.files {
				covered[f.Path] = true
			}
		}
		findings = append(findings, r.checkUnits(units, seen)...)
	}

	// Files excluded under every tag set still get the syntactic rules.
	var orphans []*File
	for _, p := range paths {
		if !covered[p] {
			orphans = append(orphans, r.newFile(p, nil))
		}
	}
	if len(orphans) > 0 {
		findings = append(findings, r.checkUnits([]*unit{{files: orphans}}, seen)...)
	}

	sortFindings(findings)
	warnings := r.allowWarnings(paths)
	sortFindings(warnings)
	return Report{Findings: findings, Warnings: warnings}, nil
}

// checkUnits applies every rule to the given units, suppressing allowed
// findings and deduplicating across tag passes via seen.
func (r *Runner) checkUnits(units []*unit, seen map[Finding]bool) []Finding {
	var out []Finding
	for _, rule := range DefaultRules() {
		name := rule.Name()
		for _, u := range units {
			for _, f := range u.files {
				if !rule.Applies(f) {
					continue
				}
				rule.Check(f, func(pos token.Pos, msg string) {
					p := r.Fset.Position(pos)
					if f.Allowed(name, p.Line) {
						return
					}
					fd := Finding{Rule: name, File: f.Path, Line: p.Line, Col: p.Column, Message: msg}
					if seen[fd] {
						return
					}
					seen[fd] = true
					out = append(out, fd)
				})
			}
		}
	}
	return out
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// newFile assembles the per-file rule context for one unit (nil for
// orphan, syntax-only files).
func (r *Runner) newFile(path string, u *unit) *File {
	af := r.parsed[path]
	f := &File{
		Fset:          r.Fset,
		AST:           af,
		Path:          path,
		IsTest:        strings.HasSuffix(path, "_test.go"),
		QBFImportName: importName(af, "repro/internal/qbf"),
		allow:         r.allowSet(path).lines,
		unit:          u,
	}
	if u != nil {
		f.PkgPath = u.pkgPath
		f.Pkg = u.pkg
		f.Info = u.info
	} else {
		f.PkgPath = r.pkgPath(path)
	}
	return f
}

// parserParse is the single parse entry point (split out so load.go can
// share it with the import path).
func parserParse(fset *token.FileSet, path string) (*ast.File, error) {
	return parser.ParseFile(fset, path, nil, parser.ParseComments)
}

// expand resolves the command-line patterns to a deduplicated, sorted
// list of .go file paths. Sorting here (not just at finding level) makes
// unit construction — and with it every downstream message that names
// "the first" site — deterministic.
func (r *Runner) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var files []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			files = append(files, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "/...") || pat == "...":
			dir := strings.TrimSuffix(pat, "...")
			dir = strings.TrimSuffix(dir, "/")
			if dir == "" {
				dir = "."
			}
			err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if skipDir(d.Name()) && path != dir {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(path, ".go") {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			info, err := os.Stat(pat)
			if err != nil {
				return nil, err
			}
			if info.IsDir() {
				entries, err := os.ReadDir(pat)
				if err != nil {
					return nil, err
				}
				for _, e := range entries {
					if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
						add(filepath.Join(pat, e.Name()))
					}
				}
			} else {
				add(pat)
			}
		}
	}
	sort.Strings(files)
	return files, nil
}

// skipDir reports whether a directory is excluded from ./... walks:
// testdata, vendor, and hidden or underscore-prefixed directories, per the
// go tool's conventions.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// pkgPath derives the import path of the package containing path from the
// module path and the file's directory relative to the module root.
func (r *Runner) pkgPath(path string) string {
	if r.ModulePath == "" {
		return filepath.ToSlash(filepath.Dir(path))
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return r.ModulePath
	}
	rel, err := filepath.Rel(r.ModuleRoot, filepath.Dir(abs))
	if err != nil || rel == "." {
		return r.ModulePath
	}
	if strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filepath.Dir(path))
	}
	return r.ModulePath + "/" + filepath.ToSlash(rel)
}

// importName returns the local name under which the file imports the given
// path: the explicit alias when one is present, the last path element
// otherwise, and "" when the file does not import it (or blanks/dots it).
func importName(af *ast.File, importPath string) string {
	for _, imp := range af.Imports {
		if strings.Trim(imp.Path.Value, `"`) != importPath {
			continue
		}
		if imp.Name != nil {
			switch imp.Name.Name {
			case "_", ".":
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(importPath, "/"); i >= 0 {
			return importPath[i+1:]
		}
		return importPath
	}
	return ""
}

// allowDirective is one //lint:allow comment: the rule names it lists
// and where it sits, kept so unknown names can be warned about.
type allowDirective struct {
	rules []string
	line  int
	col   int
}

// allowSet is the per-file suppression state.
type allowSet struct {
	lines      map[int]map[string]bool
	directives []allowDirective
}

// allowSet scans (and caches) the file's //lint:allow directives. A
// directive on line C suppresses its rules on lines C and C+1.
func (r *Runner) allowSet(path string) *allowSet {
	if s, ok := r.allows[path]; ok {
		return s
	}
	s := &allowSet{lines: map[int]map[string]bool{}}
	af := r.parsed[path]
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "lint:allow")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			pos := r.Fset.Position(c.Pos())
			d := allowDirective{line: pos.Line, col: pos.Column}
			for _, rule := range strings.Split(fields[0], ",") {
				rule = strings.TrimSpace(rule)
				if rule == "" {
					continue
				}
				d.rules = append(d.rules, rule)
				for _, ln := range [2]int{pos.Line, pos.Line + 1} {
					if s.lines[ln] == nil {
						s.lines[ln] = map[string]bool{}
					}
					s.lines[ln][rule] = true
				}
			}
			s.directives = append(s.directives, d)
		}
	}
	r.allows[path] = s
	return s
}

// allowWarnings reports //lint:allow directives naming rules the driver
// does not know: such a suppression silences nothing while looking like
// it did, so a typo must surface instead of rotting.
func (r *Runner) allowWarnings(paths []string) []Finding {
	known := map[string]bool{"all": true}
	// The known list is enumerated by name, not as a contiguous "L1-LN"
	// range: the rule numbers have gaps (L9 and L11 are unused, L13 is the
	// separate escape-gate analyzer, not an //lint:allow target), so a
	// range would misadvertise.
	names := make([]string, 0, len(DefaultRules()))
	for _, rule := range DefaultRules() {
		known[rule.Name()] = true
		names = append(names, rule.Name())
	}
	knownList := strings.Join(names, " ")
	var out []Finding
	for _, p := range paths {
		for _, d := range r.allowSet(p).directives {
			for _, name := range d.rules {
				if !known[name] {
					out = append(out, Finding{
						Rule: "allow", File: p, Line: d.line, Col: d.col,
						Message: fmt.Sprintf("//lint:allow names unknown rule %q (known: %s, all); the suppression has no effect", name, knownList),
					})
				}
			}
		}
	}
	return out
}
