package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cyclops/internal/lint/analysis"
)

// AtomicMix enforces a single access discipline per variable: a field or
// variable whose address is ever passed to a sync/atomic function must be
// accessed through sync/atomic everywhere. Mixed access is a data race the
// race detector only sees on exercised interleavings — the engines'
// activity frontier and the transport counters are exactly the places where
// a missed racy read silently corrupts a recorded series.
//
// Composite-literal field keys are exempt (construction happens-before
// everything), the phase-ordered methods named in phaseOrdered are exempt,
// and any other barrier-protected plain access is annotated in source with
// //lint:allow atomicmix <why the happens-before edge exists>.
var AtomicMix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag plain reads/writes of variables that are elsewhere accessed via sync/atomic " +
		"(mixed access is a data race the race detector only catches on exercised schedules)",
	Run: runAtomicMix,
}

// atomicFuncs are the sync/atomic package functions whose first argument is
// the address of the protected variable.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true,
	"LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// phaseOrdered names, as Type.Method, the methods whose plain access to an
// atomically written field is ordered by the superstep kernel's phase joins
// (DESIGN.md §4.1): Activate runs where the frontier has one writer, Advance
// at the barrier where it has none, ActivateShared — the only atomic site —
// in neither. By name, so a plain access anywhere else is still a finding.
var phaseOrdered = map[string]bool{"Frontier.Activate": true, "Frontier.Advance": true}

func runAtomicMix(pass *analysis.Pass) (any, error) {
	// Pass 1: collect every variable whose address feeds sync/atomic,
	// remembering the first atomic site for the diagnostic.
	atomicVars := map[*types.Var]token.Pos{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || funcPkgPath(fn) != "sync/atomic" || !atomicFuncs[fn.Name()] {
				return true
			}
			if v := addressedVar(pass, call.Args[0]); v != nil {
				if _, seen := atomicVars[v]; !seen {
					atomicVars[v] = call.Pos()
				}
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return nil, nil
	}

	// Pass 2: flag every other use of those variables that is not itself an
	// argument of a sync/atomic call.
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			first, isAtomic := atomicVars[v]
			if !isAtomic {
				return true
			}
			if usedInsideAtomicCall(pass, stack) || isCompositeLitKey(id, stack) || phaseOrdered[enclosingMethod(stack)] {
				return true
			}
			pass.Reportf(id.Pos(),
				"non-atomic access of %s, which is accessed via sync/atomic at %s; mixed access is a "+
					"data race unless a barrier provides the happens-before edge (then //lint:allow it)",
				id.Name, pass.Fset.Position(first))
			return true
		})
	}
	return nil, nil
}

// addressedVar resolves &expr (possibly through an index expression) to the
// variable object whose storage the atomic call touches: &x → x,
// &s.f → field f, &s.f[i] → field f.
func addressedVar(pass *analysis.Pass, arg ast.Expr) *types.Var {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok {
		return nil // an atomic.Pointer/Int64 method value etc.; typed atomics can't mix
	}
	inner := ast.Unparen(un.X)
	if idx, ok := inner.(*ast.IndexExpr); ok {
		inner = ast.Unparen(idx.X)
	}
	switch e := inner.(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pass.TypesInfo.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// usedInsideAtomicCall reports whether the innermost enclosing call in stack
// is a sync/atomic function — any argument position counts (value args of
// CompareAndSwap etc. are part of the atomic protocol).
func usedInsideAtomicCall(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn != nil && funcPkgPath(fn) == "sync/atomic" && atomicFuncs[fn.Name()] {
			return true
		}
	}
	return false
}

// isCompositeLitKey reports whether id is the field name of a composite
// literal (workerState{next: ...}): construction precedes sharing.
func isCompositeLitKey(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	kv, ok := stack[len(stack)-2].(*ast.KeyValueExpr)
	if !ok || kv.Key != id {
		return false
	}
	_, ok = stack[len(stack)-3].(*ast.CompositeLit)
	return ok
}

// enclosingMethod names the method declaration stack sits in as Type.Method;
// "" outside a method.
func enclosingMethod(stack []ast.Node) string {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) == 1 {
			return strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*") + "." + fd.Name.Name
		}
	}
	return ""
}
