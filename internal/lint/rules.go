package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The rule set encodes project conventions that ordinary vet cannot see.
// Exemptions are structural, not ad hoc:
//
//   - internal/qbf owns the Lit/Var representation and the DFS timestamps,
//     so it is exempt from L1 and L2 (the rules exist to funnel everyone
//     else through its API). It is also exempt from L3 because package
//     invariant imports qbf for the deep checks — qbf using invariant
//     would be an import cycle.
//   - internal/qdimacs is the parser boundary where external integers
//     legitimately become Lit/Var, so it is exempt from L2.
//   - internal/invariant is the sanctioned home of panics (Violated), so
//     it is exempt from L3.
//   - Test files and package main (cmd/, examples/) may panic and convert
//     freely: they are not library code.

// DefaultRules returns the rules the driver runs, in canonical order.
// L1-L8 and L14 are syntactic; L10, L12 and L15 (rules_typed.go) consult
// type information. L13 is the allocation escape gate, a separate
// compiler-assisted analyzer. Copies of locks and atomics are left to go
// vet's copylocks check, which scripts/check.sh runs under every
// build-tag variant.
func DefaultRules() []Rule {
	return []Rule{
		ruleTimestamps{}, ruleConversions{}, rulePanic{}, ruleStringBuild{},
		ruleGoRecover{}, ruleCommentOpener{}, ruleDirectPrint{}, ruleContextRoot{},
		ruleCtxField{}, ruleGoCancel{}, ruleSleepLoop{}, ruleFileSyncErr{},
	}
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---------------------------------------------------------------------------
// L1: no direct comparison of DFS timestamps.

type ruleTimestamps struct{}

func (ruleTimestamps) Name() string { return "L1" }
func (ruleTimestamps) Doc() string {
	return "no direct comparison of Prefix.D/Prefix.F timestamps outside internal/qbf; use Before/Comparable"
}

func (ruleTimestamps) Applies(f *File) bool {
	return f.PkgPath != "repro/internal/qbf"
}

// isTimestampCall matches a call of the form x.D(v) or x.F(v): the getter
// shape of the DFS timestamps. Purely syntactic — any one-argument method
// named D or F matches, which is precise enough in this codebase.
func isTimestampCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "D" || sel.Sel.Name == "F"
}

func (ruleTimestamps) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		if isTimestampCall(bin.X) || isTimestampCall(bin.Y) {
			report(bin.Pos(), "comparing raw DFS timestamps; use Prefix.Before or Prefix.Comparable (the interval test over-approximates ≺ on same-quantifier parent/child blocks)")
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L2: no raw int↔Lit/Var conversions outside the owning packages.

type ruleConversions struct{}

func (ruleConversions) Name() string { return "L2" }
func (ruleConversions) Doc() string {
	return "no raw qbf.Lit(n)/qbf.Var(n) conversions outside internal/qbf and internal/qdimacs; use LitOf/VarOf"
}

func (ruleConversions) Applies(f *File) bool {
	switch f.PkgPath {
	case "repro/internal/qbf", "repro/internal/qdimacs":
		return false
	}
	return !f.IsTest && f.QBFImportName != ""
}

func (ruleConversions) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		// qbf.Lit(x) / qbf.Var(x): the Fun of a conversion to a named
		// type is a plain SelectorExpr. Slice conversions like
		// []qbf.Var(nil) have an ArrayType Fun and do not match.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != f.QBFImportName {
			return true
		}
		switch sel.Sel.Name {
		case "Lit", "Var":
			report(call.Pos(), "raw integer conversion to qbf."+sel.Sel.Name+"; use qbf."+sel.Sel.Name+"Of (validates the representation) or the zero value")
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L3: library code must not panic directly.

type rulePanic struct{}

func (rulePanic) Name() string { return "L3" }
func (rulePanic) Doc() string {
	return "no direct panic in library packages; report broken internal state via invariant.Violated"
}

func (rulePanic) Applies(f *File) bool {
	if f.IsTest || f.AST.Name.Name == "main" {
		return false
	}
	switch f.PkgPath {
	case "repro/internal/qbf", "repro/internal/invariant":
		return false
	}
	return true
}

func (rulePanic) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			report(call.Pos(), "direct panic in library code; use invariant.Violated so all unreachable-state reports share one prefix and one grep target")
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L4: no string accumulation on solver paths under internal/core.

type ruleStringBuild struct{}

func (ruleStringBuild) Name() string { return "L4" }
func (ruleStringBuild) Doc() string {
	return "no fmt.Sprintf/Sprint/Sprintln or string += accumulation in internal/core; use strings.Builder (suppress intentional sites with //lint:allow L4)"
}

func (ruleStringBuild) Applies(f *File) bool {
	return !f.IsTest && strings.HasPrefix(f.PkgPath, "repro/internal/core")
}

// stringish reports whether an expression syntactically produces a string:
// a string literal, a fmt.Sprint* call, or a concatenation involving one.
func stringish(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.BinaryExpr:
		return e.Op == token.ADD && (stringish(e.X) || stringish(e.Y))
	case *ast.CallExpr:
		return isSprintCall(e)
	}
	return false
}

func isSprintCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Sprintf", "Sprint", "Sprintln":
		return true
	}
	return false
}

func (ruleStringBuild) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Rhs) == 1 && stringish(n.Rhs[0]) {
				report(n.Pos(), "string += accumulation allocates quadratically; use strings.Builder")
			}
		case *ast.CallExpr:
			if isSprintCall(n) {
				report(n.Pos(), "fmt.Sprint* allocates on the solver path; use strings.Builder or fmt.Fprintf into it")
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L5: campaign goroutines in internal/bench must contain panics.

type ruleGoRecover struct{}

func (ruleGoRecover) Name() string { return "L5" }
func (ruleGoRecover) Doc() string {
	return "go func literals in internal/bench must call recover (via defer); an uncontained goroutine panic kills the whole campaign"
}

func (ruleGoRecover) Applies(f *File) bool {
	return !f.IsTest && f.PkgPath == "repro/internal/bench"
}

// callsRecover reports whether the goroutine body contains a recover that
// can actually contain a panic in that goroutine: a call to the recover
// builtin in the frame of a function literal deferred from the goroutine's
// own frame. A recover in a nested, non-deferred literal (e.g. a callback
// argument) runs on some other frame and stops nothing, and a bare
// `defer recover()` returns nil by spec — neither counts.
func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal is a different frame; a recover inside it
			// cannot contain this goroutine's panic. Deferred literals are
			// reached through the DeferStmt case, not here.
			return false
		case *ast.DeferStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok && recoverInFrame(lit.Body) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// recoverInFrame reports whether recover is called in the frame of the
// deferred literal whose body is given — i.e. anywhere in the body except
// inside further nested function literals, where recover is ineffective.
func recoverInFrame(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return true
	})
	return found
}

func (ruleGoRecover) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true // named callees are checked where they are defined
		}
		if !callsRecover(lit.Body) {
			report(g.Pos(), "goroutine launched without a recover: a panic here crashes the whole benchmark campaign instead of erroring one instance")
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L6: no mangled comment openers.

type ruleCommentOpener struct{}

func (ruleCommentOpener) Name() string { return "L6" }
func (ruleCommentOpener) Doc() string {
	return "no mangled line-comment openers ('///', '//*', or a stray leading '/ ' in the text): edit and merge damage; write a plain '// ' comment"
}

// Applies everywhere: a broken opener is damage in any file, tests included.
// A truly detached opener like a bare "/ text" line is a parse error and
// never reaches the rules, so this rule covers the mangled forms that still
// parse — a doubled opener ("/// x", "//// banner"), a flattened block
// opener ("//* x"), and a split opener whose second slash landed in the
// comment text ("// / x", the historical options.go defect).
func (ruleCommentOpener) Applies(f *File) bool { return true }

func (ruleCommentOpener) Check(f *File, report func(token.Pos, string)) {
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // a malformed /* block is a parse error, not a finding
			}
			switch {
			case strings.HasPrefix(text, "/"):
				report(c.Pos(), "doubled comment opener '///'; write a plain '// ' comment")
			case strings.HasPrefix(text, "*"):
				report(c.Pos(), "flattened block opener '//*'; write '// ' or a real /* */ block")
			default:
				// "// / text": the opener was split by an edit and its second
				// slash ended up leading the text. A lone first token "/" is
				// the tell — "/root/path" or "https://…" do not match.
				trimmed := strings.TrimLeft(text, " \t")
				if trimmed == "/" || strings.HasPrefix(trimmed, "/ ") {
					report(c.Pos(), "comment text begins with a stray '/'; merge it back into the '//' opener")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// L7: library packages must not print to process-global streams.

type ruleDirectPrint struct{}

func (ruleDirectPrint) Name() string { return "L7" }
func (ruleDirectPrint) Doc() string {
	return "no fmt.Print*/log.Print* in library packages; report through telemetry, returned errors, or a caller-supplied io.Writer (suppress intentional sites with //lint:allow L7)"
}

// Applies to every non-test, non-main package: a library that writes to
// stdout/stderr on its own bypasses the observability layer (traces and
// metrics are attachable, a raw print is not) and corrupts CLI framing —
// qbfsolve's verdict line and golden -stats output share those streams.
func (ruleDirectPrint) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main"
}

func (ruleDirectPrint) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch pkg.Name {
		case "fmt":
			switch name {
			case "Print", "Printf", "Println":
				report(call.Pos(), "fmt."+name+" writes to process stdout from library code; take an io.Writer or attach a telemetry exporter")
			}
		case "log":
			switch name {
			case "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				report(call.Pos(), "log."+name+" uses the process-global logger from library code; return an error or emit a telemetry event")
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L8: library packages must not invent context roots.

type ruleContextRoot struct{}

func (ruleContextRoot) Name() string { return "L8" }
func (ruleContextRoot) Doc() string {
	return "no context.Background()/context.TODO() in library packages; accept a ctx parameter so cancellation reaches every solve (suppress deliberate lifecycle roots with //lint:allow L8)"
}

// Applies to every non-test, non-main package. The context-first API
// consolidation (DESIGN.md §9.5) made cancellation flow through leading
// ctx arguments; a library call minting its own Background severs that
// flow — the solve it starts can never be cancelled, drained, or traced
// to a request. The legitimate roots are structural and few: API edges
// normalizing a documented nil ctx to Background, and components that own
// a process-lifecycle context (the server's drain root). Those carry
// //lint:allow L8 with a reason.
func (ruleContextRoot) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main"
}

func (ruleContextRoot) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "context" {
			return true
		}
		switch sel.Sel.Name {
		case "Background", "TODO":
			report(call.Pos(), "context."+sel.Sel.Name+"() mints a fresh context root in library code, severing caller cancellation; take a ctx parameter (deliberate lifecycle roots: //lint:allow L8 with a reason)")
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// L14: no bare time.Sleep in library retry/poll loops.

type ruleSleepLoop struct{}

func (ruleSleepLoop) Name() string { return "L14" }
func (ruleSleepLoop) Doc() string {
	return "no bare time.Sleep inside for loops in library packages; wait on a timer/ticker with select over the context or stop channel so the loop is cancellable (suppress deliberate sites with //lint:allow L14)"
}

// Applies to every non-test, non-main package. A retry or poll loop that
// sleeps bare is deaf for the whole sleep: cancellation, drain, and
// shutdown all wait out the delay (and a capped-exponential delay can be
// seconds). Every library wait belongs in a select against the loop's
// ctx.Done() or stop channel — the pattern the probe loops, drain
// poller, and client backoff all follow.
func (ruleSleepLoop) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main"
}

func (ruleSleepLoop) Check(f *File, report func(token.Pos, string)) {
	reported := map[token.Pos]bool{}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			// A nested function literal runs on its own frame (possibly a
			// different goroutine); its sleeps are not this loop's wait.
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Sleep" {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "time" {
				return true
			}
			if !reported[call.Pos()] {
				reported[call.Pos()] = true
				report(call.Pos(), "bare time.Sleep in a loop cannot be cancelled; use a time.Timer/Ticker in a select with the context or stop channel")
			}
			return true
		})
		return true
	})
}
