package lint

import (
	"go/ast"
	"go/types"
	"sort"

	"cyclops/internal/lint/analysis"
)

// Codec-shape detection for bufretain.
//
// A codec-shaped type is a named type declared in the analyzed package whose
// method set carries the graph.Codec triple:
//
//	EncodedSize(M) int
//	Append(dst []byte, m M) []byte
//	Decode(src []byte) (M, int, error)
//
// Matching is structural (parameter and result shapes), not interface
// satisfaction: generic codecs like gasCodec[V, G] never instantiate
// graph.Codec at a concrete type inside their own package, and the golden
// fixtures must not need the real graph package to be recognized.

// codecImpl is one codec-shaped type with the syntax of its three methods.
type codecImpl struct {
	typeName string
	size     *ast.FuncDecl // EncodedSize
	app      *ast.FuncDecl // Append
	dec      *ast.FuncDecl // Decode
}

// codecImpls finds every codec-shaped type in the package, sorted by type
// name so diagnostics come out in a stable order.
func codecImpls(pass *analysis.Pass) []*codecImpl {
	byType := map[string]map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			name := recvTypeName(fd.Recv.List[0].Type)
			if name == "" {
				continue
			}
			m := byType[name]
			if m == nil {
				m = map[string]*ast.FuncDecl{}
				byType[name] = m
			}
			m[fd.Name.Name] = fd
		}
	}
	var out []*codecImpl
	for name, m := range byType {
		c := &codecImpl{typeName: name, size: m["EncodedSize"], app: m["Append"], dec: m["Decode"]}
		if c.size == nil || c.app == nil || c.dec == nil {
			continue
		}
		if !sizeShape(pass, c.size) || !appendShape(pass, c.app) || !decodeShape(pass, c.dec) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].typeName < out[j].typeName })
	return out
}

// recvTypeName unwraps a method receiver type expression — T, *T, T[P],
// *T[P, Q] — to the base type name.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// declSignature returns the type-checked signature of a FuncDecl.
func declSignature(pass *analysis.Pass, fd *ast.FuncDecl) *types.Signature {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// sizeShape matches EncodedSize(M) int.
func sizeShape(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig := declSignature(pass, fd)
	return sig != nil && sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
		isInt(sig.Results().At(0).Type())
}

// appendShape matches Append([]byte, M) []byte.
func appendShape(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig := declSignature(pass, fd)
	return sig != nil && sig.Params().Len() == 2 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
}

// decodeShape matches Decode([]byte) (M, int, error).
func decodeShape(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	sig := declSignature(pass, fd)
	return sig != nil && sig.Params().Len() == 1 && sig.Results().Len() == 3 &&
		isByteSlice(sig.Params().At(0).Type()) &&
		isInt(sig.Results().At(1).Type()) &&
		types.Identical(sig.Results().At(2).Type(), errorType)
}
