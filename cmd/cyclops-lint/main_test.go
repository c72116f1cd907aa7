package main

import (
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
	for _, name := range []string{
		"determinism", "transporterr", "atomicmix", "sendlocked",
		"bufretain", "codecsym", "slotaddr", "allocfree",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output lacks analyzer %q:\n%s", name, out)
		}
	}
	if n := strings.Count(strings.TrimSpace(out), "\n") + 1; n != 8 {
		t.Errorf("-list names %d analyzers, want eight:\n%s", n, out)
	}
}
