// Package analyzers holds the shredlint passes: each Analyzer compiles
// one of the shredder store's behavioral invariants into a build-time
// check. See README.md in the parent directory for the catalogue.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"shredder/tools/shredlint/analysis"
)

// All is the multichecker suite, in the order findings are documented.
var All = []*analysis.Analyzer{
	Durability,
	StripeLock,
	ObsNil,
	WireSym,
	ErrHygiene,
}

var errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is error or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if t.String() == "error" {
		return true
	}
	return types.Implements(t, errIface)
}

// calleeName returns the bare name a call invokes: f(...) -> "f",
// x.m(...) -> "m". Empty for indirect calls through expressions.
func calleeName(call *ast.CallExpr) string { return exprName(call.Fun) }

// exprName is the identifier an expression names: x for x, f for s.f,
// "" for anything else.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// calleeObj resolves the object a call invokes, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns t's *types.Named after pointer stripping, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// withStack walks the files depth-first, passing each node along with
// its ancestor stack (stack[len-1] == n).
func withStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			fn(n, stack)
			return true
		})
	}
}

// enclosingFuncBody returns the body of the innermost enclosing
// function (decl or literal) on the stack, or nil.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// minPos records the earliest occurrence of each key.
func minPos(m map[string]token.Pos, key string, pos token.Pos) {
	if old, ok := m[key]; !ok || pos < old {
		m[key] = pos
	}
}
