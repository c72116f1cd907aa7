package main

// Golden-file tests for the diff gate: an identical baseline/current pair must
// return nil (CI exit 0) and a perturbed pair must return an error naming the
// regressed metric (CI exit 1). The fixtures are written by the tests
// themselves so they track the real report schema.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/report"
)

func fixtureBaseline() report.Baseline {
	return report.Baseline{
		Scale: 0.25,
		Seed:  1,
		Entries: []report.Entry{
			{Experiment: "pagerank", Engine: "hama", Algorithm: "PR", Dataset: "gweb",
				Supersteps: 42, Messages: 2519118, WireBytes: 33035688, ModelMs: 110.18},
			{Experiment: "pagerank", Engine: "cyclops", Algorithm: "PR", Dataset: "gweb",
				Supersteps: 45, Messages: 1329773, WireBytes: 13579691, Replicas: 39040, ModelMs: 56.31},
		},
	}
}

func writeBaseline(t *testing.T, dir, name string, b report.Baseline) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := report.Write(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffIdenticalExitsClean(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "base.json", fixtureBaseline())
	cur := writeBaseline(t, dir, "cur.json", fixtureBaseline())
	var out, errw strings.Builder
	if err := cliMain([]string{"diff", base, cur}, &out, &errw); err != nil {
		t.Fatalf("identical diff returned %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "No regressions") {
		t.Errorf("missing clean summary:\n%s", out.String())
	}
	for _, metric := range []string{"supersteps=", "messages=", "bytes=", "replicas=", "model_ms~"} {
		if !strings.Contains(out.String(), metric) {
			t.Errorf("diff table missing %q:\n%s", metric, out.String())
		}
	}
}

func TestDiffPerturbedNamesRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "base.json", fixtureBaseline())
	perturbed := fixtureBaseline()
	perturbed.Entries[0].Messages += 1000
	cur := writeBaseline(t, dir, "cur.json", perturbed)

	var out, errw strings.Builder
	err := cliMain([]string{"diff", base, cur}, &out, &errw)
	if err == nil {
		t.Fatalf("perturbed diff returned nil\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "messages") {
		t.Errorf("error %q does not name the regressed metric", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") ||
		!strings.Contains(out.String(), "pagerank/hama#0") {
		t.Errorf("markdown lacks the regression row:\n%s", out.String())
	}
}

func TestDiffModelTolFlag(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "base.json", fixtureBaseline())
	drifted := fixtureBaseline()
	drifted.Entries[0].ModelMs *= 1.08 // outside 5%, inside 10%
	cur := writeBaseline(t, dir, "cur.json", drifted)

	var out strings.Builder
	if err := cliMain([]string{"diff", base, cur}, &out, &out); err == nil {
		t.Error("8% model drift passed the default 5% band")
	}
	out.Reset()
	if err := cliMain([]string{"diff", "-model-tol", "0.10", base, cur}, &out, &out); err != nil {
		t.Errorf("8%% drift failed a 10%% band: %v", err)
	}
}

func TestDiffAgainstRecordDir(t *testing.T) {
	// The gate's real invocation: committed JSON baseline vs a fresh -record
	// directory.
	dir := t.TempDir()
	m := obs.Manifest{Run: "run-001-hama", Experiment: "pagerank", Engine: "hama",
		Algorithm: "PR", Dataset: "gweb", Supersteps: 42, Messages: 2519118,
		WireBytes: 33035688, ModelNanos: 110.18e6}
	recDir := filepath.Join(dir, "rec")
	if err := os.MkdirAll(filepath.Join(recDir, m.Run), 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(recDir, m.Run, "manifest.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	b := fixtureBaseline()
	b.Entries = b.Entries[:1]
	base := writeBaseline(t, dir, "base.json", b)

	var out strings.Builder
	if err := cliMain([]string{"diff", base, recDir}, &out, &out); err != nil {
		t.Fatalf("baseline-vs-record-dir diff failed: %v\n%s", err, out.String())
	}
}

func TestListAndShow(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run-001-cyclops")
	if err := os.MkdirAll(run, 0o755); err != nil {
		t.Fatal(err)
	}
	m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops",
		Supersteps: 45, Messages: 1329773, ModelNanos: 56.31e6}
	blob, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(run, "manifest.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(run, "series.csv"),
		[]byte("step,active\n1,10\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := cliMain([]string{"list", dir}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "run-001-cyclops") ||
		!strings.Contains(out.String(), "1329773") {
		t.Errorf("list output:\n%s", out.String())
	}

	out.Reset()
	if err := cliMain([]string{"show", dir, "run-001-cyclops"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"engine": "cyclops"`) &&
		!strings.Contains(out.String(), `"engine":"cyclops"`) {
		t.Errorf("show output lacks manifest:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "series.csv") {
		t.Errorf("show output lacks series:\n%s", out.String())
	}
}

func TestShowCritPath(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run-001-cyclops")
	if err := os.MkdirAll(run, 0o755); err != nil {
		t.Fatal(err)
	}
	// Two supersteps whose path rows sum to exactly the timings.csv phase
	// totals (prs+cmp+snd+syn): 100+200+300+400=1000 and 10+20+30+40=100.
	critpath := "step,gating_worker,weight,compute_ns,serialize_ns,send_ns,barrier_wait_ns\n" +
		"0,1,9,600,100,200,100\n" +
		"1,0,7,50,10,20,20\n"
	timings := "step,prs_ns,cmp_ns,snd_ns,syn_ns,wall_ns\n" +
		"0,100,500,300,100,1234\n" +
		"1,10,40,30,20,567\n"
	if err := os.WriteFile(filepath.Join(run, "critpath.csv"), []byte(critpath), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(run, "timings.csv"), []byte(timings), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := cliMain([]string{"show", "-critpath", dir, "run-001-cyclops"}, &out, &out); err != nil {
		t.Fatalf("show -critpath failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"gating", "barrier-ms", "w1", "w0", "reconciliation: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("critpath output missing %q:\n%s", want, out.String())
		}
	}

	// Break the reconciliation: the command must fail, loudly.
	bad := strings.Replace(critpath, "600", "601", 1)
	if err := os.WriteFile(filepath.Join(run, "critpath.csv"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := cliMain([]string{"show", "-critpath", dir, "run-001-cyclops"}, &out, &out); err == nil ||
		!strings.Contains(err.Error(), "reconcile") {
		t.Errorf("unreconciled critpath accepted: %v\n%s", err, out.String())
	}

	// No span data at all: a helpful error, not a zero-row table.
	if err := os.Remove(filepath.Join(run, "critpath.csv")); err != nil {
		t.Fatal(err)
	}
	if err := cliMain([]string{"show", "-critpath", dir, "run-001-cyclops"}, &out, &out); err == nil {
		t.Error("missing critpath.csv accepted")
	}
}

func TestShowHeat(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "run-001-cyclops")
	if err := os.MkdirAll(run, 0o755); err != nil {
		t.Fatal(err)
	}
	// Two workers, two supersteps. Step 0's gating worker w1 is boundary-heavy
	// (bnd 90+60 vs w0's 10+40, means 75); step 1's gating worker w0 is
	// compute-heavy (600 vs mean 350).
	heat := obs.HeatCSVHeader + "\n" +
		"0,0,5,100,3,10,3,40,20\n" +
		"0,1,5,110,2,90,2,60,25\n" +
		"1,0,4,600,1,50,1,50,30\n" +
		"1,1,4,100,1,50,1,50,30\n"
	hotset := obs.HotsetCSVHeader + "\n" +
		"1,7,1,120,40\n" +
		"2,3,0,80,200\n"
	critpath := "step,gating_worker,weight,compute_ns,serialize_ns,send_ns,barrier_wait_ns\n" +
		"0,1,9,600,100,200,100\n" +
		"1,0,7,50,10,20,20\n"
	for name, body := range map[string]string{
		"heat.csv": heat, "hotset.csv": hotset, "critpath.csv": critpath,
	} {
		if err := os.WriteFile(filepath.Join(run, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := cliMain([]string{"show", "-heat", dir, "run-001-cyclops"}, &out, &out); err != nil {
		t.Fatalf("show -heat failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"partition heat map", "hot vertices", "straggler root causes",
		"boundary-message-heavy", "compute-heavy",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("heat output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "unknown") {
		t.Errorf("complete record produced an unknown root cause:\n%s", out.String())
	}

	// No heat data at all: a helpful error, not a zero-row table.
	if err := os.Remove(filepath.Join(run, "heat.csv")); err != nil {
		t.Fatal(err)
	}
	if err := cliMain([]string{"show", "-heat", dir, "run-001-cyclops"}, &out, &out); err == nil {
		t.Error("missing heat.csv accepted")
	}
}

func TestDiffHeatDigest(t *testing.T) {
	// Two record dirs identical except for one count in heat.csv: the heat
	// digest must flag the structural change exactly.
	writeRec := func(t *testing.T, root, heatRow string) {
		run := filepath.Join(root, "run-001-cyclops")
		if err := os.MkdirAll(run, 0o755); err != nil {
			t.Fatal(err)
		}
		m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops",
			Supersteps: 1, Messages: 100, WireBytes: 1001, ModelNanos: 1e6}
		blob, _ := json.Marshal(m)
		files := map[string]string{
			"manifest.json": string(blob),
			"heat.csv":      obs.HeatCSVHeader + "\n" + heatRow,
			"hotset.csv":    obs.HotsetCSVHeader + "\n1,7,1,120,40\n",
		}
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(run, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c")
	writeRec(t, a, "0,0,5,100,3,10,3,40,20\n")
	writeRec(t, b, "0,0,5,100,3,10,3,40,20\n")
	writeRec(t, c, "0,0,5,100,3,10,3,40,21\n")

	var out strings.Builder
	if err := cliMain([]string{"diff", a, b}, &out, &out); err != nil {
		t.Fatalf("identical heat digests diffed dirty: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "heat=") {
		t.Errorf("diff table missing the heat metric:\n%s", out.String())
	}
	out.Reset()
	err := cliMain([]string{"diff", a, c}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "heat") {
		t.Errorf("changed heat count not flagged: %v\n%s", err, out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{nil, {"bogus"}, {"list"}, {"show", "x"}, {"diff", "one"}} {
		if err := cliMain(args, &out, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
