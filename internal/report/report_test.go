package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
)

func baseline() Baseline {
	return Baseline{
		Scale: 0.25,
		Seed:  1,
		Entries: []Entry{
			{Experiment: "pagerank", Engine: "hama", Algorithm: "PR", Dataset: "gweb",
				Supersteps: 42, Messages: 2519118, WireBytes: 33035688, ModelMs: 110.18},
			{Experiment: "pagerank", Engine: "cyclops", Algorithm: "PR", Dataset: "gweb",
				Supersteps: 45, Messages: 1329773, WireBytes: 13579691, Replicas: 39040, ModelMs: 56.31},
			{Experiment: "pagerank", Engine: "cyclopsmt", Algorithm: "PR", Dataset: "gweb",
				Supersteps: 45, Messages: 790967, WireBytes: 6486776, Replicas: 23615, ModelMs: 14.44},
		},
	}
}

func TestDiffIdentical(t *testing.T) {
	res := Diff(baseline(), baseline(), Options{})
	if !res.OK() {
		t.Fatalf("identical baselines not OK: %v", res.Err())
	}
	if err := res.Err(); err != nil {
		t.Fatalf("Err() = %v for identical baselines", err)
	}
	// 3 runs × 5 metrics, all clean.
	if len(res.Deltas) != 15 {
		t.Errorf("got %d deltas, want 15", len(res.Deltas))
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Errorf("regressions on identical input: %v", regs)
	}
}

func TestDiffExactMetricRegresses(t *testing.T) {
	cur := baseline()
	cur.Entries[1].Messages += 5 // any drift in a deterministic count fails
	res := Diff(baseline(), cur, Options{})
	if res.OK() {
		t.Fatal("message drift not flagged")
	}
	regs := res.Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	if regs[0].Metric != "messages" || regs[0].Run != "pagerank/cyclops#0" {
		t.Errorf("regression = %+v, want messages on pagerank/cyclops#0", regs[0])
	}
	err := res.Err()
	if err == nil || !strings.Contains(err.Error(), "messages") {
		t.Errorf("Err() = %v, want it to name the metric", err)
	}
}

func TestDiffModelBand(t *testing.T) {
	within := baseline()
	within.Entries[0].ModelMs *= 1.04 // inside the default 5% band
	if res := Diff(baseline(), within, Options{}); !res.OK() {
		t.Errorf("4%% model drift flagged under 5%% tolerance: %v", res.Err())
	}
	outside := baseline()
	outside.Entries[0].ModelMs *= 1.08
	res := Diff(baseline(), outside, Options{})
	if res.OK() {
		t.Fatal("8% model drift passed under 5% tolerance")
	}
	if regs := res.Regressions(); len(regs) != 1 || regs[0].Metric != "model_ms" {
		t.Errorf("regressions = %v, want one model_ms", regs)
	}
	// A wider band admits it; improvements (faster model time) beyond the band
	// still flag, keeping the baseline honest in both directions.
	if res := Diff(baseline(), outside, Options{ModelTol: 0.10}); !res.OK() {
		t.Errorf("8%% drift flagged under 10%% tolerance: %v", res.Err())
	}
}

// TestDiffAllocBand: allocs_per_superstep is capped, not banded — a rise beyond
// the tolerance regresses, a drop of any size does not (an optimisation must
// not need a regenerated baseline to pass) — while model_ms stays two-sided.
func TestDiffAllocBand(t *testing.T) {
	withAllocs := func(scale float64) Baseline {
		b := baseline()
		for i := range b.Entries {
			b.Entries[i].AllocsPerStep = 1000 * scale
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		scale float64
		ok    bool
	}{
		{"rise-within-band", 1.20, true},
		{"rise-beyond-band", 1.30, false},
		{"drop-beyond-band", 0.50, true},
		{"drop-to-almost-nothing", 0.01, true},
	} {
		res := Diff(withAllocs(1), withAllocs(tc.scale), Options{})
		if res.OK() != tc.ok {
			t.Errorf("%s: OK() = %v, want %v (%v)", tc.name, res.OK(), tc.ok, res.Err())
		}
		for _, d := range res.Regressions() {
			if d.Metric != "allocs_per_superstep" {
				t.Errorf("%s: unexpected regression %+v", tc.name, d)
			}
		}
	}
	if res := Diff(withAllocs(1), withAllocs(1.10), Options{AllocTol: 0.05}); res.OK() {
		t.Error("10% allocation rise passed under a 5% tolerance")
	}

	faster := baseline()
	faster.Entries[0].ModelMs *= 0.90
	if regs := Diff(baseline(), faster, Options{}).Regressions(); len(regs) != 1 || regs[0].Metric != "model_ms" {
		t.Errorf("a 10%% model_ms drop must still flag (two-sided band): %v", regs)
	}
}

func TestDiffUnmatchedRuns(t *testing.T) {
	cur := baseline()
	cur.Entries = cur.Entries[:2] // cyclopsmt run vanished
	res := Diff(baseline(), cur, Options{})
	if res.OK() {
		t.Fatal("missing run not flagged")
	}
	if len(res.MissingInNew) != 1 || res.MissingInNew[0] != "pagerank/cyclopsmt#0" {
		t.Errorf("MissingInNew = %v", res.MissingInNew)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "cyclopsmt") {
		t.Errorf("Err() = %v, want it to name the missing run", err)
	}

	extra := baseline()
	extra.Entries = append(extra.Entries, Entry{Experiment: "pagerank", Engine: "hama",
		Supersteps: 42, Messages: 2519118, WireBytes: 33035688, ModelMs: 110.18})
	res = Diff(baseline(), extra, Options{})
	if len(res.MissingInOld) != 1 || res.MissingInOld[0] != "pagerank/hama#1" {
		t.Errorf("MissingInOld = %v (repeated runs get ordinals)", res.MissingInOld)
	}
}

func TestDiffOrdinalsSeparateRepeatedRuns(t *testing.T) {
	// Two hama runs in one experiment must diff positionally, not collapse.
	two := Baseline{Entries: []Entry{
		{Experiment: "sweep", Engine: "hama", Messages: 100},
		{Experiment: "sweep", Engine: "hama", Messages: 200},
	}}
	cur := Baseline{Entries: []Entry{
		{Experiment: "sweep", Engine: "hama", Messages: 100},
		{Experiment: "sweep", Engine: "hama", Messages: 999},
	}}
	res := Diff(two, cur, Options{})
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Run != "sweep/hama#1" || regs[0].Metric != "messages" {
		t.Errorf("regressions = %v, want messages on sweep/hama#1 only", regs)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_baseline.json")
	want := baseline()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Diff(want, got, Options{}).OK() {
		t.Errorf("round trip changed the baseline: %+v", got)
	}
	if got.Scale != want.Scale || got.Seed != want.Seed {
		t.Errorf("round trip lost scale/seed: %+v", got)
	}
}

func TestLoadFromRecordDir(t *testing.T) {
	dir := t.TempDir()
	// A record dir is run-* subdirectories with manifests.
	m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops",
		Supersteps: 45, Messages: 1329773, WireBytes: 13579691, Replicas: 39040, ModelNanos: 56.31e6}
	writeManifest(t, dir, m)
	b, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 1 {
		t.Fatalf("got %d entries", len(b.Entries))
	}
	e := b.Entries[0]
	if e.Engine != "cyclops" || e.Messages != 1329773 || e.ModelMs != 56.31 {
		t.Errorf("normalized entry = %+v", e)
	}

	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty record dir accepted")
	}
	if _, err := Load(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing path accepted")
	}
}

func TestWriteMarkdownOrdersRegressionsFirst(t *testing.T) {
	cur := baseline()
	cur.Entries[2].WireBytes += 1
	cur.Entries = cur.Entries[:3]
	res := Diff(baseline(), cur, Options{})
	var sb strings.Builder
	if err := res.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "wire_bytes=") {
		t.Errorf("markdown missing regression row:\n%s", out)
	}
	first := strings.Index(out, "| pagerank/cyclopsmt#0 | wire_bytes=")
	anyOK := strings.Index(out, "| ok |")
	if first < 0 || (anyOK >= 0 && anyOK < first) {
		t.Errorf("regression row not first:\n%s", out)
	}

	var clean strings.Builder
	if err := Diff(baseline(), baseline(), Options{}).WriteMarkdown(&clean); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clean.String(), "No regressions") {
		t.Errorf("clean diff lacks summary line:\n%s", clean.String())
	}
}

func TestDiffCritPathStructure(t *testing.T) {
	with := func(path string) Baseline {
		b := Baseline{Entries: []Entry{{Experiment: "pagerank", Engine: "cyclops",
			Supersteps: 3, Messages: 100, CritPath: path}}}
		return b
	}
	// Same path structure on both sides: clean, and the critpath delta exists.
	res := Diff(with("0:1 1:2 2:0"), with("0:1 1:2 2:0"), Options{})
	if !res.OK() {
		t.Fatalf("identical critpath flagged: %v", res.Err())
	}
	found := false
	for _, d := range res.Deltas {
		if d.Metric == "critpath" {
			found = true
			if !d.Exact || d.Regression {
				t.Errorf("identical critpath delta = %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("no critpath delta when both sides carry path data")
	}

	// A gating-sequence change is a structural regression, compared exactly.
	res = Diff(with("0:1 1:2 2:0"), with("0:1 1:3 2:0"), Options{})
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Metric != "critpath" {
		t.Fatalf("regressions = %v, want one critpath", regs)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "critpath") {
		t.Errorf("Err() = %v, want it to name critpath", err)
	}
	var sb strings.Builder
	if err := res.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "critpath=") {
		t.Errorf("markdown lacks the critpath row:\n%s", sb.String())
	}

	// Old baselines have no path data: the comparison is skipped, not failed.
	old := with("0:1 1:2 2:0")
	old.Entries[0].CritPath = ""
	if res := Diff(old, with("0:1 1:3 2:0"), Options{}); !res.OK() {
		t.Errorf("pre-span baseline vs spanned record flagged: %v", res.Err())
	}
	if res := Diff(with("0:1 1:2 2:0"), old, Options{}); !res.OK() {
		t.Errorf("spanned baseline vs span-less record flagged: %v", res.Err())
	}
}

func TestLoadCritPathFromRecordDir(t *testing.T) {
	dir := t.TempDir()
	m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops"}
	writeManifest(t, dir, m)
	csv := span.EncodeCritPathCSV([]span.StepPath{
		{Step: 0, Gating: 1, Weight: 9, ComputeNs: 5, SerializeNs: 1, SendNs: 2, BarrierNs: 3},
		{Step: 1, Gating: 0, Weight: 7, ComputeNs: 4, BarrierNs: 1},
	})
	if err := os.WriteFile(filepath.Join(dir, m.Run, "critpath.csv"), csv, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Entries[0].CritPath, "0:1 1:0"; got != want {
		t.Errorf("CritPath = %q, want %q", got, want)
	}

	// A run without critpath.csv loads with an empty sequence, not an error.
	m2 := obs.Manifest{Run: "run-002-hama", Experiment: "pagerank", Engine: "hama"}
	writeManifest(t, dir, m2)
	b, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Entries[1].CritPath != "" {
		t.Errorf("span-less run got CritPath %q", b.Entries[1].CritPath)
	}
}

func writeManifest(t *testing.T, root string, m obs.Manifest) {
	t.Helper()
	dir := filepath.Join(root, m.Run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"run":"` + m.Run + `","experiment":"` + m.Experiment +
		`","engine":"` + m.Engine + `","supersteps":45,"messages":1329773,` +
		`"bytes":21276368,"replicas":39040,"model_ns":56310000}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
