package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoroLeak enforces the module's Close/Run shutdown discipline: every
// `go` statement must start a goroutine with a visible shutdown edge.
// A goroutine is considered shut-downable when its body (the function
// literal, or the same-package named function it calls) contains any
// of:
//
//   - a channel receive (<-ch), including range-over-channel and any
//     select statement — the done-channel / ctx.Done() pattern
//   - a channel send or close(ch) — the goroutine signals completion
//   - a sync.WaitGroup Done() or Wait() call — the wg pairing pattern
//   - a call that is passed a context.Context — cancellation is
//     delegated to the callee (e.g. `go sw.Run(ctx)`)
//
// Goroutines whose body lives in another package (or behind a func
// value) are skipped — the callee's own package is analyzed with its
// body in view. Test files are exempt: tests lean on scoped helpers
// and the race detector instead. `//camus:ok goroleak <reason>` on the
// go statement's line suppresses a finding.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "report go statements whose goroutine has no shutdown edge " +
		"(no ctx/done-channel receive, channel op, or WaitGroup pairing)",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	supp := newSuppressions(pass.Fset, pass.Files)

	// Index same-package function bodies for `go name(...)` resolution.
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					bodies[obj] = fn
				}
			}
		}
	}

	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs, bodies, supp)
			return true
		})
	}
	return nil
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt, bodies map[*types.Func]*ast.FuncDecl, supp *suppressions) {
	// The spawning call itself may delegate shutdown: go sw.Run(ctx).
	if callPassesContext(pass, gs.Call) {
		return
	}

	var body *ast.BlockStmt
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		f := calleeFunc(pass, gs.Call)
		if f == nil {
			return // func value: body unknown, skipped (soundness note)
		}
		decl, ok := bodies[f]
		if !ok {
			return // other package: analyzed where the body lives
		}
		body = decl.Body
	}

	if hasShutdownEdge(pass, body) {
		return
	}
	if reason, ok := supp.okFor(gs.Pos(), "goroleak"); ok {
		if reason == "" {
			pass.Reportf(gs.Pos(), "//camus:ok goroleak directive without a reason")
		}
		return
	}
	pass.Reportf(gs.Pos(), "goroutine started here has no shutdown edge: no ctx/done-channel receive, channel operation, or sync.WaitGroup pairing ties it to Close/Run")
}

// hasShutdownEdge scans a goroutine body (including nested literals)
// for any construct that ties its lifetime to the outside world.
func hasShutdownEdge(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if isChanRecv(n) {
				found = true
			}
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if isCloseCall(pass, n) || isWaitGroupEdge(pass, n) || callPassesContext(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChanRecv(u *ast.UnaryExpr) bool {
	return u.Op.String() == "<-"
}

func isCloseCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := calleeIdent(call.Fun)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "close"
}

// isWaitGroupEdge matches wg.Done() / wg.Wait() on a sync.WaitGroup.
func isWaitGroupEdge(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	named, ok := deref(selection.Recv()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// callPassesContext reports whether any argument of the call is a
// context.Context — the callee owns cancellation.
func callPassesContext(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}
