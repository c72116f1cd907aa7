package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"sort"
	"strings"

	"cyclops/internal/lint"
	"cyclops/internal/lint/analysis"
)

// finding is one reported diagnostic, shaped for both terminal and JSON
// (the CI step uploads the JSON as an artifact).
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// report is the -json artifact: what fired, what was intentionally allowed,
// and which allow directives no longer suppress anything.
type report struct {
	Findings    []finding        `json:"findings"`
	AllowsUsed  []analysis.Allow `json:"allows_used"`
	StaleAllows []analysis.Allow `json:"stale_allows"`
}

func runStandalone(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("cyclops-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "write a findings report (JSON) to this `file`")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	metas, err := goList(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "cyclops-lint: %v\n", err)
		return 1
	}
	exports := map[string]string{}
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)

	rep := report{Findings: []finding{}}
	for _, m := range metas {
		if m.DepOnly || m.Standard || len(m.GoFiles) == 0 {
			continue
		}
		diags, allows, stale, err := checkPackage(fset, imp, m.ImportPath, m.Dir, m.GoFiles)
		if err != nil {
			fmt.Fprintf(stderr, "cyclops-lint: %s: %v\n", m.ImportPath, err)
			return 1
		}
		rep.Findings = append(rep.Findings, diags...)
		rep.AllowsUsed = append(rep.AllowsUsed, allows...)
		rep.StaleAllows = append(rep.StaleAllows, stale...)
	}

	// A stale allow is itself a finding: exceptions must stay honest.
	for _, a := range rep.StaleAllows {
		rep.Findings = append(rep.Findings, finding{
			Analyzer: "allow",
			File:     a.File,
			Line:     a.Line,
			Message:  fmt.Sprintf("stale //lint:allow %s directive suppresses nothing; delete it", a.Analyzer),
		})
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	fmt.Fprintf(stderr, "cyclops-lint: %d finding(s), %d intentional allow(s) in effect, %d stale allow(s)\n",
		len(rep.Findings), len(rep.AllowsUsed), len(rep.StaleAllows))
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "cyclops-lint: write %s: %v\n", *jsonOut, err)
			return 1
		}
	}
	if len(rep.Findings) > 0 {
		return 2
	}
	return 0
}

// pkgMeta is the subset of `go list -json` output the driver needs.
type pkgMeta struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Export     string
}

// goList enumerates the requested packages plus their transitive deps, with
// compiler export data built for every one of them (-export populates
// .Export from the build cache; no network involved).
func goList(patterns []string) ([]pkgMeta, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Export",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}
	var metas []pkgMeta
	dec := json.NewDecoder(&out)
	for dec.More() {
		var m pkgMeta
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// checkPackage parses, type-checks and analyzes one package, returning the
// unsuppressed findings in non-test files, the allow directives that fired,
// and the stale ones.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) ([]finding, []analysis.Allow, []analysis.Allow, error) {
	files, err := parseFiles(fset, dir, goFiles)
	if err != nil {
		return nil, nil, nil, err
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("typecheck: %v", err)
	}
	return analyzePackage(fset, files, pkg, info)
}

// analyzePackage runs the full suite over one type-checked package and
// applies the //lint:allow suppression filter.
func analyzePackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]finding, []analysis.Allow, []analysis.Allow, error) {
	allows := analysis.ParseAllows(fset, files)
	sup := analysis.NewSuppressor(allows)
	var out []finding
	for _, a := range allows {
		if a.Reason == "" {
			out = append(out, finding{
				Analyzer: "allow",
				File:     a.File,
				Line:     a.Line,
				Message:  fmt.Sprintf("//lint:allow %s is missing its reason and suppresses nothing; say why the exception is safe", a.Analyzer),
			})
		}
	}
	for _, a := range lint.Analyzers() {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			p := fset.Position(d.Pos)
			if strings.HasSuffix(p.Filename, "_test.go") {
				continue // tests exercise the runtime checkers; contracts bind prod code
			}
			if sup.Suppressed(a.Name, p.Filename, p.Line) {
				continue
			}
			out = append(out, finding{
				Analyzer: a.Name,
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Message:  d.Message,
			})
		}
	}
	var used, stale []analysis.Allow
	for _, a := range sup.Used() {
		used = append(used, a)
	}
	for _, a := range sup.Unused() {
		stale = append(stale, a)
	}
	sortAllows(used)
	sortAllows(stale)
	return out, used, stale, nil
}

func sortAllows(as []analysis.Allow) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].File != as[j].File {
			return as[i].File < as[j].File
		}
		return as[i].Line < as[j].Line
	})
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
