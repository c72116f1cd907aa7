package main

// End-to-end smoke test: the CLI must run a tiny PageRank job to completion
// with flight recording, traffic-matrix export, skew profiling and the
// invariant auditor all on, exit cleanly, and leave non-empty CSV artifacts
// behind.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/report"
)

func TestCLISmokePageRank(t *testing.T) {
	dir := t.TempDir()
	commCSV := filepath.Join(dir, "comm.csv")
	recDir := filepath.Join(dir, "rec")

	var stdout, stderr bytes.Buffer
	err := cliMain([]string{
		"-dataset", "wiki", "-scale", "0.02", "-algo", "PR", "-engine", "cyclops",
		"-machines", "2", "-workers", "2", "-steps", "30",
		"-audit", "-skew",
		"-comm", commCSV, "-record", recDir,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("cliMain failed: %v\nstderr:\n%s", err, stderr.String())
	}

	out := stdout.String()
	for _, want := range []string{
		"graph:",
		"cyclops:",              // trace summary line
		"phases:",               // Trace.String now includes the phase ratios
		"replication factor:",   // engine-specific summary
		"top 5 vertices:",       // result rendering
		"skew profile: cyclops", // -skew report
		"wrote traffic matrix to",
		"recorded run-001-cyclops", // -record flight record
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	// The flight record is complete: manifest with the CLI's metadata stamped
	// in, plus the per-superstep sections.
	rec, err := obs.ReadRecord(recDir, "run-001-cyclops")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"engine": "cyclops"`, `"algorithm": "PR"`, `"dataset": "wiki"`,
		`"machines": 2`, `"workers_per_machine": 2`,
	} {
		if !strings.Contains(string(rec.ManifestJSON), want) {
			t.Errorf("manifest missing %s:\n%s", want, rec.ManifestJSON)
		}
	}
	if len(rec.Series) == 0 || len(rec.Timings) != len(rec.Series) {
		t.Errorf("record has %d series and %d timings rows, want one each per superstep",
			len(rec.Series), len(rec.Timings))
	}

	// The convergence telemetry is live: the CLI wires Residual into the
	// engine, so the recorded series carries non-empty residual quantiles.
	series := rec.Raw[obs.SeriesSection]
	rows := strings.Split(strings.TrimSpace(string(series)), "\n")
	cols := strings.Split(rows[0], ",")
	residN := -1
	for i, c := range cols {
		if c == "residual_n" {
			residN = i
		}
	}
	if residN < 0 {
		t.Fatalf("series header lacks residual_n: %q", rows[0])
	}
	populated := false
	for _, row := range rows[1:] {
		if f := strings.Split(row, ","); len(f) > residN && f[residN] != "0" {
			populated = true
			break
		}
	}
	if !populated {
		t.Errorf("residual telemetry never populated:\n%s", series)
	}

	comm, err := os.ReadFile(commCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(comm), obs.CommCSVHeader) {
		t.Errorf("comm CSV header = %q, want %q", firstLine(string(comm)), obs.CommCSVHeader)
	}
	if lines := strings.Count(string(comm), "\n"); lines < 2 {
		t.Errorf("comm CSV has %d lines, want a header plus traffic rows", lines)
	}
}

// TestCLIRunsEveryPair drives the CLI over every (engine, algorithm) pair it
// accepts, and once per engine under a seeded fault plan: the faulted run
// must print the same result vertices as the clean one.
func TestCLIRunsEveryPair(t *testing.T) {
	datasets := map[string]string{"PR": "gweb", "SSSP": "roadca", "CD": "dblp", "CC": "dblp"}
	run := func(t *testing.T, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := cliMain(args, &stdout, &stderr); err != nil {
			t.Fatalf("cliMain %v: %v\nstderr:\n%s", args, err, stderr.String())
		}
		_, top, ok := strings.Cut(stdout.String(), "top 5 vertices:")
		if !ok || strings.Count(top, "vertex") != 5 {
			t.Fatalf("cliMain %v printed no result vertices:\n%s", args, stdout.String())
		}
		return top
	}
	for engine, algos := range map[string][]string{
		"hama":       {"PR", "SSSP", "CD", "CC"},
		"cyclops":    {"PR", "SSSP", "CD", "CC"},
		"powergraph": {"PR", "SSSP"},
	} {
		for i, algo := range algos {
			t.Run(engine+"/"+algo, func(t *testing.T) {
				args := []string{"-engine", engine, "-algo", algo, "-dataset", datasets[algo],
					"-scale", "0.02", "-machines", "2", "-workers", "2", "-source", "1"}
				clean := run(t, args...)
				if i == 0 {
					if faulted := run(t, append(args, "-fault-seed", "1")...); faulted != clean {
						t.Errorf("-fault-seed 1 changed the result:\nclean:%s\nfaulted:%s", clean, faulted)
					}
				}
			})
		}
	}
	var stdout, stderr bytes.Buffer
	for _, pair := range [][2]string{{"powergraph", "CD"}, {"cyclops", "ALS"}} {
		if err := cliMain([]string{"-engine", pair[0], "-algo", pair[1], "-dataset", "dblp", "-scale", "0.02"},
			&stdout, &stderr); err == nil {
			t.Errorf("%s/%s is not a row of the table and must be refused", pair[0], pair[1])
		}
	}
}

// TestCLIMatchesGateRow pins the CLI to the harness's rows: the perf gate's
// graph, cluster and eps, run through cyclops-run, must record the counts the
// committed baseline holds for that engine — so a cyclops-run record can be
// diffed against a cyclops-bench one.
func TestCLIMatchesGateRow(t *testing.T) {
	base, err := report.Load(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"cyclops", "hama"} {
		t.Run(engine, func(t *testing.T) {
			recDir := t.TempDir()
			var stdout, stderr bytes.Buffer
			if err := cliMain([]string{"-algo", "PR", "-dataset", "gweb", "-scale", "0.25",
				"-machines", "6", "-workers", "8", "-engine", engine, "-eps", "1e-9", "-steps", "200",
				"-record", recDir}, &stdout, &stderr); err != nil {
				t.Fatalf("cliMain: %v\nstderr:\n%s", err, stderr.String())
			}
			rec, err := obs.ReadRecord(recDir, "run-001-"+engine)
			if err != nil {
				t.Fatal(err)
			}
			m := rec.Manifest
			for _, e := range base.Entries {
				if e.Engine != engine {
					continue
				}
				got := [4]int64{int64(m.Supersteps), m.Messages, m.WireBytes, m.Replicas}
				want := [4]int64{int64(e.Supersteps), e.Messages, e.WireBytes, e.Replicas}
				if got != want {
					t.Errorf("supersteps/messages/wire_bytes/replicas = %v, gate row %v", got, want)
				}
				return
			}
			t.Fatalf("BENCH_baseline.json has no %s entry", engine)
		})
	}
}

// TestCLIGraphFileSpeaksTheFilesIDs: a text edge list may name its vertices
// by any integers. The loader relabels them; -source and the printed results
// must not show that — the user keeps speaking the file's ids.
func TestCLIGraphFileSpeaksTheFilesIDs(t *testing.T) {
	// A weighted path 5000000000 → 700 → 42 → 9 plus a far shortcut, ids
	// sparse and past 32 bits, CRLF line ends.
	path := filepath.Join(t.TempDir(), "path.txt")
	text := "# src dst w\r\n5000000000 700 2\r\n700 42 3\r\n42 9 4\r\n5000000000 9 100\r\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	run := func(args ...string) error {
		stdout.Reset()
		stderr.Reset()
		return cliMain(append([]string{"-graph", path, "-machines", "2"}, args...), &stdout, &stderr)
	}

	if err := run("-algo", "SSSP", "-source", "700", "-top", "4"); err != nil {
		t.Fatalf("cliMain: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "|V|=4") {
		t.Errorf("the four ids the file names must load as four vertices:\n%s", out)
	}
	// Distances from 700: itself 0, 42 at 3, 9 at 7; 5000000000 is unreachable.
	for _, want := range []string{"vertex 5000000000 +Inf", "vertex 9        7", "vertex 42       3", "vertex 700      0"} {
		if !strings.Contains(out, want) {
			t.Errorf("top-N lacks %q:\n%s", want, out)
		}
	}

	if err := run("-algo", "SSSP", "-source", "1"); err == nil || !strings.Contains(err.Error(), "-source 1") {
		t.Errorf("-source 1 names no vertex of the file; err = %v", err)
	}
	// Algorithms without a source do not care that the default 0 names none.
	if err := run("-algo", "PR"); err != nil {
		t.Errorf("PR over the file: %v", err)
	}
	if err := run("-algo", "PR", "-loaders", "2"); err == nil || !strings.Contains(stderr.String(), "-loaders") {
		t.Errorf("-loaders is gone and must be refused by flag parsing; err = %v", err)
	}
}

func TestSlowPhaseFlagParsing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// A malformed factor must fail in flag parsing, before any run starts.
	if err := cliMain([]string{"-slow-phase", "fast", "-dataset", "wiki", "-scale", "0.01"},
		&stdout, &stderr); err == nil {
		t.Fatal("non-numeric -slow-phase accepted")
	}
	if !strings.Contains(stderr.String(), "slow-phase") {
		t.Errorf("parse error does not name the flag:\n%s", stderr.String())
	}

	// A valid factor parses and reaches the run log; <=1 disables the
	// slow-phase detector, so a tiny run completes without slow-phase warnings even under
	// a noisy test machine.
	stdout.Reset()
	stderr.Reset()
	err := cliMain([]string{"-dataset", "wiki", "-scale", "0.01", "-algo", "PR",
		"-engine", "cyclops", "-steps", "5", "-slow-phase", "1", "-verbose"},
		&stdout, &stderr)
	if err != nil {
		t.Fatalf("run with -slow-phase 1 failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "slow-phase") {
		t.Errorf("-slow-phase 1 should disable the detector:\n%s", stderr.String())
	}
}

func TestCLIErrorsReturnNotExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := cliMain([]string{"-engine", "nope", "-dataset", "wiki", "-scale", "0.01"},
		&stdout, &stderr); err == nil {
		t.Fatal("unknown engine must surface as an error")
	}
	if err := cliMain(nil, &stdout, &stderr); err == nil {
		t.Fatal("missing -dataset/-graph must surface as an error")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
