package main

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"

	"go/ast"
)

// newExportImporter resolves imports from compiler export data files: the
// map from import path to .a/.x file comes from `go list -export`. The
// "unsafe" pseudo-package is served directly.
func newExportImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exportFiles[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return unsafeAware{importer.ForCompiler(fset, "gc", lookup)}
}

type unsafeAware struct{ inner types.Importer }

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.inner.Import(path)
}

// parseFiles parses the listed Go files (paths relative to dir unless
// absolute) with comments, as the analyzers and the allow machinery need
// them.
func parseFiles(fset *token.FileSet, dir string, goFiles []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
