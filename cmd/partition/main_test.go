package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownAlgoFails: an -algo no partitioner answers to is an error that
// names the three, before any table is printed.
func TestUnknownAlgoFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-dataset", "wiki", "-scale", "0.02", "-algo", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "hash, metis or range") {
		t.Fatalf("err = %v, want one naming hash, metis and range", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q before failing", out.String())
	}
}

// TestAlgoSelectsOneRow: a known -algo prints its row and no other.
func TestAlgoSelectsOneRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("100 200\n200 300\n300 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-graph", path, "-k", "2", "-algo", "range"}, &out); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := rows[len(rows)-1]; !strings.HasPrefix(last, "range ") || strings.Contains(out.String(), "hash ") {
		t.Fatalf("want one range row after the header:\n%s", out.String())
	}
}
