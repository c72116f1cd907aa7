package report

import (
	"encoding/json"
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
	// 3 runs × 8 metrics, all clean.
	if len(res.Deltas) != 24 {
		t.Errorf("got %d deltas, want 24", len(res.Deltas))
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
	// A record dir is one run-NNN-<engine>.rec file per run.
	m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops",
		Supersteps: 45, Messages: 1329773, WireBytes: 13579691, Replicas: 39040, ModelNanos: 56.31e6,
		MemRun: obs.MemRun{Allocs: 4500}}
	writeRecord(t, dir, m)
	b, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 1 {
		t.Fatalf("got %d entries", len(b.Entries))
	}
	e := b.Entries[0]
	if e.Engine != "cyclops" || e.Messages != 1329773 || e.ModelMs != 56.31 || e.AllocsPerStep != 100 {
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

	// Every record carries path data, so one side without it is a change.
	old := with("0:1 1:2 2:0")
	old.Entries[0].CritPath = ""
	if res := Diff(old, with("0:1 1:3 2:0"), Options{}); res.OK() {
		t.Error("pre-span baseline vs spanned record not flagged")
	}
	if res := Diff(with("0:1 1:2 2:0"), old, Options{}); res.OK() {
		t.Error("spanned baseline vs span-less record not flagged")
	}
	// The same holds for the heat digest and the replicated value memory.
	heated := with("0:1 1:2 2:0")
	heated.Entries[0].Heat, heated.Entries[0].ReplicaValueBytes = "2r/1h:0badf00d", 800
	for _, strip := range []func(e *Entry){
		func(e *Entry) { e.Heat = "" },
		func(e *Entry) { e.ReplicaValueBytes = 0 },
	} {
		pre := with("0:1 1:2 2:0")
		pre.Entries[0] = heated.Entries[0]
		strip(&pre.Entries[0])
		if res := Diff(pre, heated, Options{}); res.OK() || len(res.Regressions()) != 1 {
			t.Errorf("baseline %+v vs %+v: %d regressions, want 1", pre.Entries[0], heated.Entries[0], len(res.Regressions()))
		}
	}
}

func TestLoadCritPathFromRecordDir(t *testing.T) {
	dir := t.TempDir()
	m := obs.Manifest{Run: "run-001-cyclops", Experiment: "pagerank", Engine: "cyclops"}
	writeRecord(t, dir, m, string(obs.EncodeCritPathCSV([]span.StepPath{
		{Step: 0, Gating: 1, Weight: 9, ComputeNs: 5, SerializeNs: 1, SendNs: 2, BarrierNs: 3},
		{Step: 1, Gating: 0, Weight: 7, ComputeNs: 4, BarrierNs: 1},
	})))
	b, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Entries[0].CritPath, "0:1 1:0"; got != want {
		t.Errorf("CritPath = %q, want %q", got, want)
	}

	// A record without its critpath section is rejected, naming the run and
	// the section: every recorder writes all seven, so a gap is damage.
	m2 := obs.Manifest{Run: "run-002-hama", Experiment: "pagerank", Engine: "hama"}
	writeRecord(t, dir, m2)
	path := filepath.Join(dir, m2.Run+".rec")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(blob), obs.CritPathCSVHeader+"\n", "", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil || !strings.Contains(err.Error(), "run-002-hama") || !strings.Contains(err.Error(), "critpath") {
		t.Errorf("record without a critpath section loaded: %v", err)
	}
}

// TestRunOrderPastNineHundredNinetyNine: run numbers outgrow their three
// digits, and a root holding runs 999 and 1000 of one engine lists and diffs
// in recording order, not in name order.
func TestRunOrderPastNineHundredNinetyNine(t *testing.T) {
	dir := t.TempDir()
	writeRecord(t, dir, obs.Manifest{Run: "run-1000-hama", Experiment: "sweep", Engine: "hama", Messages: 2})
	writeRecord(t, dir, obs.Manifest{Run: "run-999-hama", Experiment: "sweep", Engine: "hama", Messages: 1})
	ms, err := obs.ReadManifests(dir)
	if err != nil || len(ms) != 2 || ms[0].Run != "run-999-hama" || ms[1].Run != "run-1000-hama" {
		t.Fatalf("ReadManifests = %+v, %v; want run-999-hama then run-1000-hama", ms, err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := Baseline{Entries: []Entry{{Experiment: "sweep", Engine: "hama", Messages: 1, Heat: emptyHeat},
		{Experiment: "sweep", Engine: "hama", Messages: 2, Heat: emptyHeat}}}
	if res := Diff(want, got, Options{}); !res.OK() {
		t.Errorf("runs 999 and 1000 diff out of order: %v", res.Err())
	}
}

// emptyHeat is the heat digest of a record whose heat and hotset sections
// hold only their headers.
const emptyHeat = "0r/0h:d6f458eb"

// writeRecord writes m's run record under root: its JSON, then every section
// in file order, each one of sections when it starts with that header, else
// just the header.
func writeRecord(t *testing.T, root string, m obs.Manifest, sections ...string) {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	for _, header := range []string{obs.SeriesCSVHeader, obs.TimingsCSVHeader, obs.MemCSVHeader,
		obs.SpansCSVHeader, obs.CritPathCSVHeader, obs.HeatCSVHeader, obs.HotsetCSVHeader} {
		section := header + "\n"
		for _, s := range sections {
			if strings.HasPrefix(s, section) {
				section = s
			}
		}
		blob = append(blob, section...)
	}
	if err := os.WriteFile(filepath.Join(root, m.Run+".rec"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
