package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the driver with stdout/stderr redirected to temp files and
// returns the exit code plus both outputs.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	open := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := open("stdout"), open("stderr")
	code := runStandalone(args, stdout, stderr)
	read := func(f *os.File) string {
		f.Close()
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return code, read(stdout), read(stderr)
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := capture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "determinism transporterr bufretain"; got != want {
		t.Errorf("-list names %q, want exactly %q", got, want)
	}
}

// TestAllowDirectiveFindings: a directive that does not earn its keep is a
// finding. A reason-less one never suppresses and is reported as such; one
// that names a retired (or unknown) analyzer suppresses nothing and is
// reported stale — so neither can sit in the tree with the driver exiting 0.
func TestAllowDirectiveFindings(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	retired := []string{"atomicmix", "sendlocked", "slotaddr", "codecsym", "allocfree"}
	src := "package scratch\n\n//lint:allow determinism\nvar bare int\n\n"
	for i, name := range retired {
		src += fmt.Sprintf("var v%d = make([]byte, 8) //lint:allow %s left behind when the analyzer went\n", i, name)
	}
	write("scratch.go", src)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // best-effort restore; the next test would fail loudly

	jsonPath := filepath.Join(dir, "report.json")
	code, out, stderr := capture(t, "-json", jsonPath, "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	wants := []string{"scratch.go:3:0: //lint:allow determinism is missing its reason"}
	for i, name := range retired {
		wants = append(wants, fmt.Sprintf("scratch.go:%d:0: stale //lint:allow %s directive", 6+i, name))
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	var rep report
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != len(wants) || !strings.Contains(rep.Findings[0].Message, "missing its reason") {
		t.Errorf("-json findings = %+v, want the missing reason, then %d stale allows", rep.Findings, len(retired))
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "allow" {
			t.Errorf("-json finding %+v is not booked under \"allow\"", f)
		}
	}
	if len(rep.StaleAllows) != len(retired) || len(rep.AllowsUsed) != 0 {
		t.Errorf("-json stale_allows = %+v, allows_used = %+v, want the %d retired names stale and none used",
			rep.StaleAllows, rep.AllowsUsed, len(retired))
	}
}
