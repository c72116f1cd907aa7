package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs realMain with stdout/stderr redirected to temp files and
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
	code := realMain(args, stdout, stderr)
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

func TestVetProtocolVersion(t *testing.T) {
	code, out, _ := capture(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full exit = %d, want 0", code)
	}
	// go vet caches on this line; it must name the tool and be stable.
	if !strings.Contains(out, "cyclops-lint version") {
		t.Errorf("-V=full output %q lacks version string", out)
	}
}

func TestVetProtocolFlags(t *testing.T) {
	code, out, _ := capture(t, "-flags")
	if code != 0 {
		t.Fatalf("-flags exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("-flags output = %q, want []", out)
	}
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

func TestVetCfgDetection(t *testing.T) {
	for arg, want := range map[string]bool{
		"vet.cfg":      true,
		"/tmp/vet.cfg": true,
		".cfg":         false, // bare suffix only, no name
		"./...":        false,
		"a.go":         false,
	} {
		if got := isVetCfg(arg); got != want {
			t.Errorf("isVetCfg(%q) = %v, want %v", arg, got, want)
		}
	}
}

func TestMissingVetCfgIsDriverError(t *testing.T) {
	code, _, errOut := capture(t, filepath.Join(t.TempDir(), "nope.cfg"))
	if code != 1 {
		t.Fatalf("missing cfg exit = %d, want 1", code)
	}
	if !strings.Contains(errOut, "cyclops-lint:") {
		t.Errorf("stderr %q lacks tool prefix", errOut)
	}
}
