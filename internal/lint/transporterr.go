package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"cyclops/internal/lint/analysis"
)

// TransportErr enforces the PR 4 transport-error taxonomy at every call
// site:
//
//   - an error returned by a cyclops/internal/transport method (Close, Err,
//     New, ...) must not be silently dropped — a swallowed ErrRoundViolation
//     or ErrClosed turns a protocol breach into a hang several supersteps
//     later. An explicit `_ =` discard or an //lint:allow directive records
//     intent; a bare call or `defer`/`go` statement does not.
//   - transport failures must be classified with errors.Is / errors.As
//     against the typed taxonomy (transport.Error, ErrClosed,
//     ErrRoundViolation, Transient()), never by matching err.Error() text —
//     message strings carry peer ids and wrapped causes and are not stable.
//   - error sentinels that taxonomy is built from must be constructed with
//     errors.New, not a verb-less fmt.Errorf: identity is the contract, and
//     a format call that formats nothing signals the wrong intent (and
//     invites someone to add a verb, silently destabilizing the sentinel).
var TransportErr = &analysis.Analyzer{
	Name: "transporterr",
	Doc: "flag dropped errors from transport methods and string-matching on error text instead of " +
		"errors.Is/As with the typed transport taxonomy (PR 4)",
	Run: runTransportErr,
}

func runTransportErr(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		checkSentinelStyle(pass, f)
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedTransportErr(pass, call, "")
				}
			case *ast.DeferStmt:
				checkDroppedTransportErr(pass, n.Call, "defer ")
			case *ast.GoStmt:
				checkDroppedTransportErr(pass, n.Call, "go ")
			case *ast.BinaryExpr:
				checkErrStringCompare(pass, n)
			case *ast.CallExpr:
				checkErrStringContains(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkDroppedTransportErr reports a statement that invokes a transport
// function returning an error and ignores the result entirely.
func checkDroppedTransportErr(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || funcPkgPath(fn) != transportPkgPath {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, errorType) {
		return
	}
	pass.Reportf(call.Pos(),
		"%serror from transport.%s dropped: a swallowed ErrClosed/ErrRoundViolation surfaces as a hang "+
			"supersteps later; check it, or discard explicitly with `_ =`", how, fn.Name())
}

// isErrorTextCall reports whether e is a call to the Error() string method
// of a value implementing the error interface.
func isErrorTextCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return implementsError(pass.TypesInfo.TypeOf(sel.X))
}

// checkErrStringCompare flags `err.Error() == "..."`-style comparisons.
func checkErrStringCompare(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	if isErrorTextCall(pass, b.X) || isErrorTextCall(pass, b.Y) {
		pass.Reportf(b.Pos(),
			"comparing err.Error() text: transport failures carry peer ids and wrapped causes; "+
				"classify with errors.Is/As against transport.Error/ErrClosed/ErrRoundViolation")
	}
}

// stringMatchFuncs are the strings-package predicates whose use on error
// text means someone is parsing a message instead of the taxonomy.
var stringMatchFuncs = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true,
	"Index": true, "EqualFold": true,
}

// checkErrStringContains flags strings.Contains(err.Error(), ...) and
// friends.
func checkErrStringContains(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || funcPkgPath(fn) != "strings" || !stringMatchFuncs[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if isErrorTextCall(pass, arg) {
			pass.Reportf(call.Pos(),
				"strings.%s on err.Error() text: classify transport failures with errors.Is/As "+
					"against the typed taxonomy (transport.Error, ErrClosed, ErrRoundViolation)", fn.Name())
			return
		}
	}
}

// checkSentinelStyle flags package-level error sentinels built with a
// verb-less fmt.Errorf: errors.New keeps the sentinel's identity out of
// fmt's hands and allocates nothing beyond the error itself at init.
func checkSentinelStyle(pass *analysis.Pass, f *ast.File) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				call, ok := ast.Unparen(v).(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil || funcPkgPath(fn) != "fmt" || fn.Name() != "Errorf" {
					continue
				}
				format, known := constStringValue(pass, call.Args[0])
				if known && !strings.Contains(format, "%") {
					pass.Reportf(call.Pos(),
						"package-level error sentinel built with verb-less fmt.Errorf: use errors.New — "+
							"same message, identity-stable, and nothing owed to fmt at init")
				}
			}
		}
	}
}

func constStringValue(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
