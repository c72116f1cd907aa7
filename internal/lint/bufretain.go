package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"cyclops/internal/lint/analysis"
)

// BufRetain is an escape-style dataflow check for the reused-buffer aliasing
// bug class PR 9's arena buffers made possible. Three kinds of slice are
// round-owned — valid only until the next superstep reuses their backing
// array:
//
//   - the dst buffer a Codec.Append implementation receives (a per-peer
//     arena the transport recycles every round);
//   - the src buffer a Codec.Decode implementation reads (the frame read
//     buffer, overwritten by the next frame);
//   - the batches transport.Drain (or the engines' superstep.Drain, which
//     wraps it) returns and the batch decodeFrameBody fills from a non-nil
//     scratch slice (containers truncated to [:0] and refilled next round).
//
// Within each function that holds such a slice, the analyzer taints it and
// every local alias (sub-slices, element reads of slice-of-slice, append
// extensions, &elem pointers) and reports any flow into memory that outlives
// the round: struct fields, package-level variables, maps, channel sends,
// goroutine arguments, and closures that capture the buffer. Copying idioms
// (append onto a fresh/nil slice, scalar element reads) do not propagate
// taint, so snapshot paths stay clean without annotations.
var BufRetain = &analysis.Analyzer{
	Name: "bufretain",
	Doc: "flag Codec.Append/Decode implementations, Drain consumers and decodeFrameBody callers that " +
		"store a round-owned arena/scratch slice (or a sub-slice) where it outlives the round (PR 9)",
	Run: runBufRetain,
}

func runBufRetain(pass *analysis.Pass) (any, error) {
	for _, c := range codecImpls(pass) {
		if obj := firstParamObj(pass, c.app); obj != nil {
			newRetainCheck(pass, c.app, obj,
				"Codec.Append's dst — a per-peer arena buffer the transport reuses every superstep").run()
		}
		if obj := firstParamObj(pass, c.dec); obj != nil {
			newRetainCheck(pass, c.dec, obj,
				"Codec.Decode's src — the frame read buffer, overwritten by the next frame").run()
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			seedRoundBuffers(pass, fd)
		}
	}
	return nil, nil
}

// firstParamObj resolves the object of fd's first parameter, or nil when it
// is unnamed/blank (an unnamed buffer cannot be retained).
func firstParamObj(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return nil
	}
	names := fd.Type.Params.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

const (
	drainLabel   = "transport.Drain's round batches — the containers are truncated and refilled next round"
	scratchLabel = "decodeFrameBody's scratch-decoded batch — clobbered by the next frame"
)

// seedRoundBuffers finds Drain results and scratch-decoded batches inside fd
// and, if any exist, runs the retention check over the function with those
// seeds. Direct stores of a Drain result into long-lived memory (dst[w] =
// tr.Drain(w) through a captured container) are reported on the spot.
func seedRoundBuffers(pass *analysis.Pass, fd *ast.FuncDecl) {
	rc := &retainCheck{
		pass: pass, fn: fd,
		taint:    map[types.Object]string{},
		reported: map[token.Pos]bool{},
	}
	seeded := false
	analysis.WithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if isTransportDrainCall(pass, call) && i < len(n.Lhs) {
					seeded = true
					rc.seedInto(n.Lhs[i], drainLabel, stack)
				}
				if isScratchDecodeCall(pass, call) && len(n.Lhs) == 4 {
					seeded = true
					rc.seedInto(n.Lhs[2], scratchLabel, stack)
				}
			}
		case *ast.RangeStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isTransportDrainCall(pass, call) {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						seeded = true
						rc.taint[obj] = drainLabel
					}
				}
			}
		}
		return true
	})
	if seeded {
		rc.run()
	}
}

// seedInto taints the target of a seed assignment, reporting on the spot
// when the target is itself round-outliving memory (a field, map entry, or
// captured container receiving a Drain result directly).
func (rc *retainCheck) seedInto(lhs ast.Expr, label string, stack []ast.Node) {
	rc.flowInto(lhs, label, stack, true)
}

// isTransportDrainCall matches calls to a Drain method declared by the
// transport package (Local, RPC, or the Interface the engines hold) and to
// superstep.Drain, the engines' booking wrapper around it.
func isTransportDrainCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Drain" {
		return false
	}
	path := funcPkgPath(fn)
	return path == transportPkgPath || path == superstepPkgPath
}

// isScratchDecodeCall matches decodeFrameBody calls whose scratch argument
// (the last) is non-nil: only those hand back a buffer the caller is
// lending, not receiving. TestBufRetainMatchesTransportDecode holds the real
// function to this shape: scratch last, the batch third of four results.
func isScratchDecodeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "decodeFrameBody" || len(call.Args) == 0 {
		return false
	}
	if id, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

// retainCheck is one escape-style pass over a single function body: taint
// grows from the seeds through aliasing assignments, and flows into
// round-outliving memory are findings.
type retainCheck struct {
	pass     *analysis.Pass
	fn       *ast.FuncDecl
	taint    map[types.Object]string
	reported map[token.Pos]bool
}

func newRetainCheck(pass *analysis.Pass, fd *ast.FuncDecl, seed types.Object, label string) *retainCheck {
	return &retainCheck{
		pass: pass, fn: fd,
		taint:    map[types.Object]string{seed: label},
		reported: map[token.Pos]bool{},
	}
}

func (rc *retainCheck) run() {
	// Propagate to a fixpoint without reporting, then report once: taint
	// discovered late must still flag sinks that appear earlier in the body.
	for rc.walk(false) {
	}
	rc.walk(true)
}

func (rc *retainCheck) report(pos token.Pos, format string, args ...any) {
	if rc.reported[pos] {
		return
	}
	rc.reported[pos] = true
	rc.pass.Reportf(pos, format, args...)
}

// walk makes one pass over the function body. With report=false it only
// grows the taint set (returning whether it grew); with report=true it
// additionally emits diagnostics for sink flows.
func (rc *retainCheck) walk(report bool) bool {
	grew := false
	info := rc.pass.TypesInfo
	analysis.WithStack(rc.fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				label := rc.taintOf(rhs)
				if label == "" {
					continue
				}
				if rc.flowInto(n.Lhs[i], label, stack, report) {
					grew = true
				}
			}
		case *ast.RangeStmt:
			if label := rc.taintOf(n.X); label != "" {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if isSliceLike(info.TypeOf(id)) {
						if obj := info.Defs[id]; obj != nil && rc.taint[obj] == "" {
							rc.taint[obj] = label
							grew = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if label := rc.taintOf(n.Value); label != "" && report {
				rc.report(n.Value.Pos(),
					"round-owned buffer sent on a channel: %s; the receiver sees it after the backing "+
						"array is reused — copy the data or restructure", label)
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if label := rc.taintOf(arg); label != "" && report {
					rc.report(arg.Pos(),
						"round-owned buffer passed to a goroutine: %s; the goroutine can outlive the "+
							"round unless joined before the next Drain — copy, or annotate the join with //lint:allow", label)
				}
			}
		case *ast.Ident:
			if !report {
				return true
			}
			obj := info.Uses[n]
			if obj == nil || rc.taint[obj] == "" {
				return true
			}
			if fl := innermostFuncLit(stack[:len(stack)-1]); fl != nil && !posWithin(obj.Pos(), fl) {
				rc.report(n.Pos(),
					"round-owned buffer captured by a closure: %s; the closure aliases the backing array "+
						"after the round reuses it — copy, or annotate an in-round join with //lint:allow",
					rc.taint[obj])
			}
		}
		return true
	})
	return grew
}

// flowInto handles `lhs = <tainted>`: stores into fields, globals, maps,
// captured containers are sinks; stores into local variables or local slice
// elements propagate taint. Returns whether the taint set grew.
func (rc *retainCheck) flowInto(lhs ast.Expr, label string, stack []ast.Node, report bool) bool {
	info := rc.pass.TypesInfo
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		obj := info.Defs[lhs]
		if obj == nil {
			obj = info.Uses[lhs]
		}
		if obj == nil {
			return false
		}
		if obj.Parent() == rc.pass.Pkg.Scope() {
			if report {
				rc.report(lhs.Pos(),
					"round-owned buffer stored into package-level %s: %s; it outlives every round", lhs.Name, label)
			}
			return false
		}
		if rc.taint[obj] == "" {
			rc.taint[obj] = label
			return true
		}
	case *ast.SelectorExpr:
		if report {
			rc.report(lhs.Pos(),
				"round-owned buffer stored into field %s: %s; the field outlives the round and will "+
					"alias next round's data — copy with append([]T(nil), buf...) if it must persist",
				exprText(lhs), label)
		}
	case *ast.IndexExpr:
		if t := info.TypeOf(lhs.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				if report {
					rc.report(lhs.Pos(),
						"round-owned buffer stored into map %s: %s; map entries outlive the round", exprText(lhs), label)
				}
				return false
			}
		}
		root := rootIdent(lhs.X)
		if root == nil {
			if report {
				rc.report(lhs.Pos(),
					"round-owned buffer stored into %s, memory that outlives this function's round: %s",
					exprText(lhs), label)
			}
			return false
		}
		obj := info.Uses[root]
		if obj == nil {
			return false
		}
		if fl := innermostFuncLit(stack); fl != nil && !posWithin(obj.Pos(), fl) {
			if report {
				rc.report(lhs.Pos(),
					"round-owned buffer stored through captured container %s: %s; the store escapes the "+
						"goroutine/closure into memory the next round reuses — copy, or annotate an in-round "+
						"join with //lint:allow", exprText(lhs), label)
			}
			return false
		}
		if rc.taint[obj] == "" {
			rc.taint[obj] = label
			return true
		}
	}
	return false
}

// taintOf reports the taint label flowing out of expression e, or "".
func (rc *retainCheck) taintOf(e ast.Expr) string {
	info := rc.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return rc.taint[obj]
		}
	case *ast.SliceExpr:
		return rc.taintOf(e.X)
	case *ast.IndexExpr:
		// batches[i] aliases the round buffer only when the element is itself
		// a slice ([][]M → []M); a scalar element read is a copy.
		if isSliceLike(info.TypeOf(e)) {
			return rc.taintOf(e.X)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rc.taintOf(e.X)
		}
	case *ast.CallExpr:
		// append(tainted, ...) still aliases the tainted backing array, and
		// appending a tainted slice as an element keeps the alias inside the
		// result. append(fresh, tainted...) copies elements, which launders
		// the taint unless the elements are themselves slices (copied
		// headers still point into the round buffer).
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				if label := rc.taintOf(e.Args[0]); label != "" {
					return label
				}
				if e.Ellipsis.IsValid() {
					if len(e.Args) == 2 && sliceElemIsSlice(info.TypeOf(e)) {
						return rc.taintOf(e.Args[1])
					}
				} else {
					for _, a := range e.Args[1:] {
						if label := rc.taintOf(a); label != "" {
							return label
						}
					}
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if label := rc.taintOf(el); label != "" {
				return label
			}
		}
	}
	return ""
}

// sliceElemIsSlice reports whether t is a slice whose elements are
// themselves slice-like ([][]M): element copies of such a slice still carry
// aliasing headers.
func sliceElemIsSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isSliceLike(s.Elem())
}

// isSliceLike reports slice or type-parameter types (a generic batch element
// could be anything; stay conservative and keep the taint).
func isSliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// rootIdent digs through index/selector chains to the base identifier of an
// lvalue's container, or nil when the base is itself a field access (e.bufs)
// — already long-lived memory.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// innermostFuncLit returns the innermost *ast.FuncLit in stack, or nil.
func innermostFuncLit(stack []ast.Node) *ast.FuncLit {
	for i := len(stack) - 1; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl
		}
	}
	return nil
}

// posWithin reports whether pos falls inside the FuncLit (its parameters or
// body) — i.e. the object was declared by the literal, not captured.
func posWithin(pos token.Pos, fl *ast.FuncLit) bool {
	return fl.Pos() <= pos && pos < fl.End()
}
