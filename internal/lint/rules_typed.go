package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The typed rules (L10, L12, L15) consult go/types information and
// therefore guard on f.Info != nil in Applies: files excluded under every
// build-tag set, or expressions the checker could not resolve (fixtures
// referencing packages that do not exist), degrade to silence rather than
// false positives.

// typeIsContext reports whether t is the context.Context interface type.
func typeIsContext(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// typeIsChan reports whether t's underlying type is a channel.
func typeIsChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// ---------------------------------------------------------------------------
// L10: no context.Context stored in struct fields in library packages.

type ruleCtxField struct{}

func (ruleCtxField) Name() string { return "L10" }
func (ruleCtxField) Doc() string {
	return "no context.Context struct fields in library packages; contexts flow through call parameters (request-scoped carriers: //lint:allow L10 with a reason)"
}

func (ruleCtxField) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main" && f.Info != nil
}

func (ruleCtxField) Check(f *File, report func(token.Pos, string)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			if !typeIsContext(f.TypeOf(field.Type)) {
				continue
			}
			pos := field.Type.Pos()
			if len(field.Names) > 0 {
				pos = field.Names[0].Pos()
			}
			report(pos, "struct field stores a context.Context, detaching it from the call that created it; pass ctx as a parameter (deliberate request-scoped carriers: //lint:allow L10 with a reason)")
		}
		return true
	})
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// ---------------------------------------------------------------------------
// L12: goroutines launched in library packages must be cancellable.

type ruleGoCancel struct{}

func (ruleGoCancel) Name() string { return "L12" }
func (ruleGoCancel) Doc() string {
	return "goroutines launched in library packages must be stoppable: the body (or in-package callee) must use a ctx or receive on a done/stop channel (suppress deliberate process-lifetime goroutines with //lint:allow L12)"
}

func (ruleGoCancel) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main" && f.Info != nil
}

// bodyCancellable reports whether a function body holds a stop signal:
// any expression of type context.Context in scope, a channel receive, a
// range over a channel, or a select statement. Nested literals count —
// the signal just has to be reachable from the goroutine.
func bodyCancellable(f *File, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if typeIsContext(f.TypeOf(n)) {
				found = true
			}
		case *ast.SelectorExpr:
			if typeIsContext(f.TypeOf(n)) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if typeIsChan(f.TypeOf(n.X)) {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		}
		return !found
	})
	return found
}

// declBody resolves the body of the function a goroutine launches when
// it is declared in the same package; ok is false when the callee is
// external (callers must then judge from the call site alone).
func declBody(f *File, fun ast.Expr) (body *ast.BlockStmt, external bool) {
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = f.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = f.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil, false // unresolved: degraded type info, stay silent
	}
	if decl := f.unit.declOf(fn); decl != nil && decl.Body != nil {
		return decl.Body, false
	}
	return nil, true
}

// ---------------------------------------------------------------------------
// L15: file durability errors must be checked in library packages.

type ruleFileSyncErr struct{}

func (ruleFileSyncErr) Name() string { return "L15" }
func (ruleFileSyncErr) Doc() string {
	return "no discarded (*os.File).Sync/Close error in library packages; a failed fsync or close is silent data loss — check the error (deliberate best-effort sites: //lint:allow L15 with a reason)"
}

func (ruleFileSyncErr) Applies(f *File) bool {
	return !f.IsTest && f.AST.Name.Name != "main" && f.Info != nil
}

// osFileDurabilityCall reports whether call is f.Sync() or f.Close() on
// an *os.File, returning the method name.
func osFileDurabilityCall(f *File, call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := f.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return "", false
	}
	if fn.Name() != "Sync" && fn.Name() != "Close" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := types.Unalias(sig.Recv().Type())
	ptr, ok := recv.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "File" {
		return "", false
	}
	return fn.Name(), true
}

// Check flags statement-position calls and blank assignments: both throw
// the error away. A deferred f.Close() is exempt — it is the idiomatic
// cleanup for read paths and for error paths already returning a prior
// failure; write paths that care sync or close explicitly before
// returning, which this rule does police.
func (ruleFileSyncErr) Check(f *File, report func(token.Pos, string)) {
	flag := func(call *ast.CallExpr) {
		if name, ok := osFileDurabilityCall(f, call); ok {
			report(call.Pos(), fmt.Sprintf(
				"discarded error from (*os.File).%s: a failed %s is silent data loss — check it, or annotate //lint:allow L15 for deliberate best-effort sites",
				name, name))
		}
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := unparen(n.X).(*ast.CallExpr); ok {
				flag(call)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) || !isBlank(n.Lhs[i]) {
					continue
				}
				if call, ok := unparen(rhs).(*ast.CallExpr); ok {
					flag(call)
				}
			}
		}
		return true
	})
}

func (ruleGoCancel) Check(f *File, report func(token.Pos, string)) {
	argsCancellable := func(call *ast.CallExpr) bool {
		for _, a := range call.Args {
			if t := f.TypeOf(a); typeIsContext(t) || typeIsChan(t) {
				return true
			}
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := f.TypeOf(sel.X); typeIsContext(t) || typeIsChan(t) {
				return true
			}
		}
		return false
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if argsCancellable(g.Call) {
			return true
		}
		switch fun := unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			if !bodyCancellable(f, fun.Body) {
				report(g.Pos(), "goroutine has no reachable stop signal: thread a ctx or receive on a done/stop channel so shutdown can reach it")
			}
		case *ast.Ident, *ast.SelectorExpr:
			body, external := declBody(f, fun)
			switch {
			case body != nil:
				if !bodyCancellable(f, body) {
					report(g.Pos(), "goroutine callee has no reachable stop signal: thread a ctx or receive on a done/stop channel so shutdown can reach it")
				}
			case external:
				report(g.Pos(), "goroutine launches an external callee with no ctx or channel at the call site; if it is stopped by other means, annotate //lint:allow L12 with the reason")
			}
		}
		return true
	})
}
