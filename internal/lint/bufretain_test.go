package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"testing"

	"cyclops/internal/lint"
	"cyclops/internal/lint/analysistest"
)

func TestBufRetain(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.BufRetain,
		"bufretain",
	)
}

// TestBufRetainMatchesTransportDecode holds the real transport.decodeFrameBody
// and its testdata mirror to the shape isScratchDecodeCall assumes — scratch
// the last parameter, the batch the third of four results — so a signature
// change fails here instead of silently disarming the scratch check.
func TestBufRetainMatchesTransportDecode(t *testing.T) {
	shape := func(path string) (params, results []string) {
		t.Helper()
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "decodeFrameBody" {
				for _, fl := range fd.Type.Params.List {
					for _, n := range fl.Names {
						params = append(params, n.Name)
					}
				}
				for _, fl := range fd.Type.Results.List {
					results = append(results, types.ExprString(fl.Type))
				}
				return params, results
			}
		}
		t.Fatalf("%s: no decodeFrameBody", path)
		return nil, nil
	}
	real, realRes := shape(filepath.Join("..", "transport", "frame.go"))
	mirror, mirrorRes := shape(filepath.Join("testdata", "src", "bufretain", "bufretain.go"))
	if len(real) == 0 || real[len(real)-1] != "scratch" || len(realRes) != 4 || realRes[2] != "[]M" {
		t.Fatalf("transport.decodeFrameBody(%v) (%v) no longer takes scratch last and returns the batch 3rd of 4: update isScratchDecodeCall",
			real, realRes)
	}
	if !reflect.DeepEqual(real, mirror) || len(mirrorRes) != len(realRes) {
		t.Fatalf("testdata mirror decodeFrameBody(%v) (%v) differs from transport's (%v) (%v)", mirror, mirrorRes, real, realRes)
	}
}
