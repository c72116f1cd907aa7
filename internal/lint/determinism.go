package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"cyclops/internal/lint/analysis"
)

// Determinism enforces §3.6 replay determinism inside the engine and
// transport packages: same input + same seed must produce a byte-identical
// flight record (the PR 3 exact-match perf gate depends on it). Three bug
// classes break that:
//
//   - wall-clock reads (time.Now / time.Since) whose value escapes the
//     timings quarantine — durations are only legal when stored directly
//     into a time.Duration field/element (the timings-section side channel the
//     recorder never diffs);
//   - the global math/rand generator, which is seeded per-process — any
//     randomness must come from an explicitly seeded *rand.Rand;
//   - map iteration, whose order is randomized per run, anywhere in the
//     engine packages — message emission, obs.Recorder series and
//     checkpoint encoding all live here, so iteration order must not exist
//     unless the loop provably doesn't depend on it (collect-then-sort or
//     delete-all idioms);
//   - allocator introspection (runtime.ReadMemStats, runtime/metrics.Read),
//     whose values depend on GC schedule and machine — memory telemetry
//     belongs to the obs layer's quarantined mem section, never to engine code
//     that could fold heap numbers into replayed state.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock, global math/rand, map-iteration and allocator-introspection use that can break " +
		"§3.6 replay determinism (byte-identical flight records) in the engine and transport packages",
	Run: runDeterminism,
}

// determinismScope lists the package-path prefixes the analyzer polices: the
// three engines, the superstep kernel that runs them, and the transport.
// Everything these packages emit lands in messages, recorder series or
// checkpoints.
var determinismScope = []string{
	"cyclops/internal/cyclops",
	"cyclops/internal/bsp",
	"cyclops/internal/gas",
	"cyclops/internal/superstep",
	"cyclops/internal/transport",
}

func inDeterminismScope(path string) bool {
	for _, p := range determinismScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !inDeterminismScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, n, stack)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkDeterminismCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "Now":
			if !legalTimeNow(pass, call, stack) {
				pass.Reportf(call.Pos(),
					"time.Now escapes the timings quarantine: wall-clock values must only feed "+
						"time.Since or I/O deadlines, or replay determinism (§3.6) breaks")
			}
		case "Since":
			if !legalTimeSince(pass, call, stack) {
				pass.Reportf(call.Pos(),
					"time.Since result must be stored directly into a time.Duration field or element "+
						"(the timings-section quarantine); anything else can leak wall-clock into recorded series (§3.6)")
			}
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the process-global generator.
		// Constructors for explicitly seeded generators are the fix, so
		// they are legal.
		if fn.Type().(*types.Signature).Recv() != nil {
			return // methods on an explicit *rand.Rand are seeded by construction
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return
		}
		pass.Reportf(call.Pos(),
			"global math/rand.%s is process-seeded and breaks replay determinism (§3.6); "+
				"use an explicitly seeded *rand.Rand", fn.Name())
	case "runtime":
		if fn.Name() == "ReadMemStats" {
			pass.Reportf(call.Pos(),
				"runtime.ReadMemStats values are GC-schedule- and machine-dependent; engine code must not "+
					"read them (§3.6) — memory telemetry flows through obs hooks into the quarantined mem section")
		}
	case "runtime/metrics":
		if fn.Name() == "Read" {
			pass.Reportf(call.Pos(),
				"runtime/metrics.Read values are GC-schedule- and machine-dependent; engine code must not "+
					"read them (§3.6) — memory telemetry flows through obs hooks into the quarantined mem section")
		}
	}
}

// legalTimeNow reports whether a time.Now call stays inside the quarantine:
// either every use of the variable or unexported field it initializes is a
// time.Since argument (the phase-timer idiom), or the value flows directly into a socket
// deadline (SetDeadline family), which affects I/O scheduling but never a
// recorded value.
func legalTimeNow(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	// time.Now().Add(d) passed to SetDeadline/SetReadDeadline/SetWriteDeadline.
	for i := len(stack) - 2; i >= 0; i-- {
		outer, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if sel, ok := outer.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				return true
			}
		}
	}
	// start := time.Now() where start is only ever consumed by time.Since. A
	// local timer is checked over its function; an unexported struct field
	// (k.runStart = time.Now(), read by other methods) over the whole package,
	// which is every place that can name it.
	if len(stack) < 2 {
		return false
	}
	assign, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return false
	}
	var obj types.Object
	var scope []ast.Node
	switch lhs := assign.Lhs[0].(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs] // plain `=` re-assignment of an existing timer var
		}
		if fn := enclosingFunc(stack); fn != nil {
			scope = []ast.Node{funcBody(fn)}
		}
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[lhs.Sel].(*types.Var); ok && v.IsField() && !v.Exported() {
			obj = v
			for _, f := range pass.Files {
				scope = append(scope, f)
			}
		}
	}
	if obj == nil || len(scope) == 0 {
		return false
	}
	onlySince := true
	for _, root := range scope {
		analysis.WithStack(root, func(n ast.Node, s []ast.Node) bool {
			use, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[use] != obj {
				return true
			}
			// ref names the timer: the ident itself, or the x.f selector
			// around a field's ident.
			ref, s := ast.Node(use), s[:len(s)-1]
			if sel, ok := s[len(s)-1].(*ast.SelectorExpr); ok && sel.Sel == use {
				ref, s = sel, s[:len(s)-1]
			}
			// The use is legal iff it is the argument of a time.Since call...
			legal := false
			if c, ok := s[len(s)-1].(*ast.CallExpr); ok && len(c.Args) == 1 && c.Args[0] == ref {
				if cf := calleeFunc(pass.TypesInfo, c); cf != nil &&
					funcPkgPath(cf) == "time" && cf.Name() == "Since" {
					legal = true
				}
			}
			// ...or re-arms the timer (`start = time.Now()`): a write, not a read.
			if a, ok := s[len(s)-1].(*ast.AssignStmt); ok && len(a.Lhs) == 1 && a.Lhs[0] == ref {
				legal = true
			}
			if !legal {
				onlySince = false
			}
			return true
		})
	}
	return onlySince
}

// legalTimeSince reports whether a time.Since call's result is immediately
// stored into a time.Duration-typed field or element — the shape of every
// timings quarantine (metrics.StepStats.Durations, IngressStats fields).
// Assignment to a plain local is illegal: a local can flow anywhere.
func legalTimeSince(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	assign, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, rhs := range assign.Rhs {
		if rhs != call || i >= len(assign.Lhs) {
			continue
		}
		lhs := assign.Lhs[i]
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			return false
		}
		if t := pass.TypesInfo.TypeOf(lhs); t != nil && t.String() == "time.Duration" {
			return true
		}
	}
	return false
}

// checkMapRange flags iteration over maps unless the body is one of the two
// order-insensitive idioms: collecting keys/values with a single append
// (sorted afterwards) or deleting entries.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if len(rng.Body.List) == 1 {
		switch s := rng.Body.List[0].(type) {
		case *ast.AssignStmt:
			// keys = append(keys, k): order-insensitive collection.
			if len(s.Rhs) == 1 {
				if c, ok := s.Rhs[0].(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "append" {
						return
					}
				}
			}
		case *ast.ExprStmt:
			// delete(m, k): order-insensitive drain.
			if c, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "delete" {
					return
				}
			}
		}
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is randomized per run and can reach message emission, recorder series "+
			"or checkpoint encoding (§3.6); collect keys and sort, or justify with //lint:allow")
}
