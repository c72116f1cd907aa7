// Package lint is cyclops-lint: a static-analysis suite that proves, over
// every call site instead of only the executed ones, the structural
// invariants this repo otherwise checks at runtime — the paper's §3.4
// unidirectional master→replica sync contract, §3.6 replay determinism (the
// flight recorder's byte-identical-run gate), the PR 4 typed transport-error
// taxonomy, and the PR 9 arena contract (a round's buffers do not outlive it).
//
// Each analyzer is documented in its own file and mapped to the contract it
// enforces in internal/lint/README.md. Intentional exceptions are annotated
// in source with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above; the driver counts used allows and
// reports stale ones.
package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"cyclops/internal/lint/analysis"
)

// Import paths of the repo packages whose contracts the analyzers encode.
// The analysistest suites reproduce these paths under testdata/src, so the
// same package-identity checks hold in golden tests and production runs.
const (
	transportPkgPath = "cyclops/internal/transport"
	superstepPkgPath = "cyclops/internal/superstep"
)

// Analyzers returns the full cyclops-lint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		TransportErr,
		BufRetain,
	}
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := fun.X.(*ast.Ident); ok {
			id = ident
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the declaring package path of fn, or "" for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// exprText renders an expression compactly ("ws.next", "t.encMu[from]") for
// matching receiver expressions and for diagnostics.
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// enclosingFunc returns the innermost FuncDecl or FuncLit in stack, or nil.
// Analyzers use it to scope flow-ish reasoning to one function body: events
// inside a nested closure belong to the closure, not its parent.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit node.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// errorType is the universe error type; errorIface its underlying
// interface, for "is this an error value" checks on named types.
var (
	errorType  = types.Universe.Lookup("error").Type()
	errorIface = errorType.Underlying().(*types.Interface)
)

func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) ||
		types.Implements(types.NewPointer(t), errorIface)
}
