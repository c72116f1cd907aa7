package obs_test

// Flight recorder tests: a run's one record file carries a faithful manifest
// and a deterministic series, same-seed runs of every engine produce
// byte-identical series sections (the guarantee cyclops-report's exact diff
// relies on), and the writable-path preflight helpers reject unusable paths
// at flag-parse time instead of after a run.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// heatCounters keeps a copy of the latest record's cumulative per-vertex heat
// counters; after the last barrier nothing moves them, so what it holds when
// the run ends are the final counters.
type heatCounters struct {
	obs.Nop
	msgs, units []int64
	owner       func(v int) int
}

func (c *heatCounters) OnSuperstep(rec *obs.StepRecord) {
	c.msgs = append(c.msgs[:0], rec.HeatMsgs...)
	c.units = append(c.units[:0], rec.HeatUnits...)
	c.owner = rec.Owner
}

// recordOne runs one engine over g with a fresh Recorder in dir (plus any
// extra observers) and returns the run's manifest.
func recordOne(t *testing.T, dir, engine string, g *graph.Graph, extra ...obs.Hooks) obs.Manifest {
	t.Helper()
	recorder, err := obs.NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.Multi(append([]obs.Hooks{recorder}, extra...)...)
	recorder.SetMeta(obs.RunMeta{Experiment: "test", Algorithm: "PR", Dataset: "wiki",
		Partitioner: "hash", Seed: 1, Scale: 0.02, Machines: 2, WorkersPerMachine: 2})
	cc := cluster.Flat(2, 2)
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	resid := func(a, b float64) float64 { return abs(a - b) }
	switch engine {
	case "cyclops":
		e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-6},
			cyclops.Config[float64, float64]{Cluster: cc, MaxSupersteps: 30, Hooks: rec,
				Equal:    func(a, b float64) bool { return abs(a-b) < 1e-6 },
				Residual: resid})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	case "hama":
		e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: 1e-6},
			bsp.Config[float64, float64]{Cluster: cc, MaxSupersteps: 30, Hooks: rec,
				Equal:    func(a, b float64) bool { return abs(a-b) < 1e-6 },
				Residual: resid})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	case "powergraph":
		e, err := gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, 30, 1e-6),
			gas.Config[algorithms.PRValue, float64]{Cluster: cc, MaxSupersteps: 30, Hooks: rec,
				ValCodec: algorithms.PRValueCodec{},
				Residual: func(old, new algorithms.PRValue) float64 { return abs(old.Rank - new.Rank) }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	if err := recorder.Err(); err != nil {
		t.Fatal(err)
	}
	ms := recorder.Manifests()
	if len(ms) != 1 {
		t.Fatalf("recorded %d manifests, want 1", len(ms))
	}
	return ms[0]
}

func TestRecorderArtifacts(t *testing.T) {
	g, _, err := gen.Dataset("wiki", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := recordOne(t, dir, "cyclops", g)

	if m.Run != "run-001-cyclops" {
		t.Errorf("run name = %q, want run-001-cyclops", m.Run)
	}
	if m.Engine != "cyclops" || m.Experiment != "test" || m.Algorithm != "PR" ||
		m.Dataset != "wiki" || m.Partitioner != "hash" || m.Seed != 1 {
		t.Errorf("manifest meta = %+v", m)
	}
	if m.Workers != 4 || m.Vertices != g.NumVertices() || m.Edges != g.NumEdges() {
		t.Errorf("manifest shape = %+v", m)
	}
	if m.Supersteps <= 0 || m.Messages <= 0 || m.WireBytes <= 0 || m.ModelNanos <= 0 ||
		m.Replicas <= 0 || m.StopReason == "" {
		t.Errorf("manifest totals = %+v", m)
	}
	if m.GoVersion == "" {
		t.Error("manifest missing go version")
	}

	// The run left exactly one file, its record, and the record's manifest
	// round-trips and matches.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != m.Run+".rec" {
		t.Fatalf("record root holds %v (err %v), want only %s.rec", entries, err, m.Run)
	}
	rec := readRecord(t, dir, m.Run)
	if rec.Manifest != m {
		t.Errorf("on-disk manifest %+v != returned %+v", rec.Manifest, m)
	}

	lines := strings.Split(strings.TrimSpace(string(rec.Raw[obs.SeriesSection])), "\n")
	if len(lines) != 1+m.Supersteps {
		t.Fatalf("series has %d lines, want header + %d steps", len(lines), m.Supersteps)
	}
	if !strings.HasPrefix(lines[0], "step,active,changed,messages,") {
		t.Errorf("series header = %q", lines[0])
	}
	for _, col := range []string{"residual_p50", "skew_compute", "redundant_ratio",
		"wire_bytes", "replica_value_bytes", "model_ns"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("series header missing %q", col)
		}
	}
	// Convergence telemetry must actually be populated: PageRank residuals
	// shrink, so step 1's residual_max is positive.
	if !strings.Contains(lines[1], ",") || strings.Contains(lines[1], ",,") {
		t.Errorf("series row malformed: %q", lines[1])
	}

	if timings := string(rec.Raw[obs.TimingsSection]); !strings.HasPrefix(timings, "step,prs_ns,cmp_ns,snd_ns,syn_ns,wall_ns") {
		t.Errorf("timings header = %q", strings.SplitN(timings, "\n", 2)[0])
	}

	// Every record carries the quarantined memory telemetry: one mem row per
	// superstep, parsed back through the obs API.
	if mem := string(rec.Raw[obs.MemSection]); !strings.HasPrefix(mem, obs.MemCSVHeader+"\n") {
		t.Errorf("mem header = %q", strings.SplitN(mem, "\n", 2)[0])
	}
	if len(rec.Mem) != m.Supersteps {
		t.Errorf("mem has %d rows, want one per %d supersteps", len(rec.Mem), m.Supersteps)
	}

	// The deterministic wire accounting made it into the manifest: in-process
	// wire bytes are the frames a socket run would write — positional sync
	// frames, 8 B per float64 value plus a header, a mode byte and a presence
	// bitmap each, under the 13 B per message (4 slot + 1 activation + 8
	// value) of frames addressed by slot — and replica storage cost is
	// attributed for cyclops.
	if m.WireBytes <= 8*m.Messages+transport.FrameHeaderBytes || m.WireBytes >= 13*m.Messages {
		t.Errorf("wire bytes %d are not between 8 B and 13 B × %d messages", m.WireBytes, m.Messages)
	}
	if m.ReplicaValueBytes <= 0 {
		t.Errorf("cyclops manifest missing replica_value_bytes: %+v", m)
	}

	// Load-time partition quality is stamped into the manifest: the hash
	// partitioner cuts edges on wiki, balance is a max/mean coefficient, and
	// cyclops replicates boundary vertices.
	if m.EdgeCut <= 0 || m.PartitionBalance < 1 || m.ReplicationFactor <= 0 {
		t.Errorf("manifest partition quality = cut %d, balance %v, rf %v",
			m.EdgeCut, m.PartitionBalance, m.ReplicationFactor)
	}
	if m.ReplicaWorkerMin > m.ReplicaWorkerMed || m.ReplicaWorkerMed > m.ReplicaWorkerMax ||
		m.ReplicaWorkerMax <= 0 {
		t.Errorf("replica distribution min/med/max = %d/%d/%d",
			m.ReplicaWorkerMin, m.ReplicaWorkerMed, m.ReplicaWorkerMax)
	}

	// The heat observatory's sections are present and parse back exactly.
	if len(rec.Heat) != m.Supersteps*m.Workers {
		t.Errorf("heat has %d rows, want %d workers × %d supersteps",
			len(rec.Heat), m.Workers, m.Supersteps)
	}
	if len(rec.Hot) == 0 {
		t.Error("hotset empty after a PageRank run")
	}

	// ReadManifests finds the run; a second recorder appends after it.
	ms, err := obs.ReadManifests(dir)
	if err != nil || len(ms) != 1 {
		t.Fatalf("ReadManifests = %d manifests, err %v", len(ms), err)
	}
	m2 := recordOne(t, dir, "hama", g)
	if m2.Run != "run-002-hama" {
		t.Errorf("second recorder continued at %q, want run-002-hama", m2.Run)
	}
}

// exactSink keeps TestRecorderCountsAllocationsExactly's objects live, so
// none of them can be optimised away or freed before the count is read.
var exactSink []*[4]int64

// TestRecorderCountsAllocationsExactly runs a Recorder over a "run" that
// allocates a known number of small heap objects — far fewer than a span
// refill's booking granularity would show per superstep — and checks that
// the manifest counts every one of them, plus at most the little the Log's
// own barrier and the test's loop add.
func TestRecorderCountsAllocationsExactly(t *testing.T) {
	const n = 10_000
	// slack covers the Log's first-barrier appends and whatever a runtime
	// goroutine allocates meanwhile: 5 in each of 200 runs at GOMAXPROCS 1, 2,
	// 4 and 8 and under -race.
	const slack = 16
	r, err := obs.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exactSink = make([]*[4]int64, n)
	r.OnRunStart(obs.RunInfo{Engine: "exact", Workers: 1})
	r.OnSuperstepStart(0)
	for i := range exactSink {
		exactSink[i] = new([4]int64)
	}
	r.OnSuperstep(&obs.StepRecord{Step: 0})
	r.OnRunEnd(obs.RunEnd{Step: 1, Reason: obs.ReasonHalt})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	m := r.Manifests()[0]
	t.Logf("%d objects allocated, %d counted", n, m.Allocs)
	if m.Allocs < n || m.Allocs > n+slack {
		t.Errorf("manifest counts %d allocations, want %d..%d", m.Allocs, n, n+slack)
	}
	if want := uint64(n * 32); m.AllocBytes < want {
		t.Errorf("manifest counts %d bytes, want >= %d", m.AllocBytes, want)
	}
	exactSink = nil
}

// TestMemPeakReadsTheEngineNotItself: MemPeak's peak covers what is live at
// a barrier, its MemRun counts the run window like the recorder's, and its
// barrier reads keep nothing, so a long run cannot grow its own peak.
func TestMemPeakReadsTheEngineNotItself(t *testing.T) {
	const n, slack = 10_000, 16
	m := obs.NewMemPeak()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	exactSink = make([]*[4]int64, n)
	m.OnRunStart(obs.RunInfo{Engine: "peak", Workers: 1})
	for i := range exactSink {
		exactSink[i] = new([4]int64)
	}
	rec := &obs.StepRecord{Step: 0}
	m.OnSuperstep(rec)
	m.OnRunEnd(obs.RunEnd{Step: 1, Reason: obs.ReasonHalt})
	if want := before.HeapAlloc + n*32; m.Peak < want {
		t.Errorf("peak %d bytes, want >= %d (heap before %d + %d live objects)", m.Peak, want, before.HeapAlloc, n)
	}
	if m.Run.Allocs < n || m.Run.Allocs > n+slack {
		t.Errorf("run counts %d allocations, want %d..%d", m.Run.Allocs, n, n+slack)
	}
	exactSink = nil
	m.OnRunStart(obs.RunInfo{Engine: "peak", Workers: 1})
	if m.Peak != 0 || m.Run != (obs.MemRun{}) {
		t.Errorf("a new run starts from peak %d, run %+v; want zero", m.Peak, m.Run)
	}
	for step := range 10_000 {
		rec.Step = step
		m.OnSuperstep(rec)
	}
	m.OnRunEnd(obs.RunEnd{Step: 10_000, Reason: obs.ReasonHalt})
	if m.Run.AllocBytes > 4<<10 {
		t.Errorf("10 000 barriers allocate %d bytes, want <= 4 KiB", m.Run.AllocBytes)
	}
}

// TestRecorderNumbersPastExistingRuns: a recorder numbers its runs after
// every run-* entry in its root, past three digits too, and ReadManifests
// lists records in run order, ignoring the dot-named temp file a flush in
// progress leaves and anything else that is not a record.
func TestRecorderNumbersPastExistingRuns(t *testing.T) {
	dir := t.TempDir()
	run := func() obs.Manifest {
		r, err := obs.NewRecorder(dir)
		if err != nil {
			t.Fatal(err)
		}
		r.OnRunStart(obs.RunInfo{Engine: "exact", Workers: 1})
		r.OnSuperstepStart(0)
		r.OnSuperstep(&obs.StepRecord{Step: 0})
		r.OnRunEnd(obs.RunEnd{Step: 1, Reason: obs.ReasonHalt})
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		return r.Manifests()[0]
	}
	first := run()
	if err := os.Rename(filepath.Join(dir, first.Run+".rec"), filepath.Join(dir, "run-999-exact.rec")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".run-2000-exact.rec.tmp-1", "BENCH_baseline.json", "run-x.rec"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if m := run(); m.Run != "run-1000-exact" {
		t.Errorf("run after run-999 is %s, want run-1000-exact", m.Run)
	}
	ms, err := obs.ReadManifests(dir)
	if err != nil || len(ms) != 2 || ms[0].Run != "run-999-exact" || ms[1].Run != "run-1000-exact" {
		t.Fatalf("ReadManifests = %+v, %v; want run-999-exact then run-1000-exact", ms, err)
	}
}

// TestRecorderDeterminism is the guarantee the perf gate stands on: two
// same-seed runs of the same engine produce byte-identical series sections.
// Wall-clock noise is confined to the timings section and the manifest's
// wall_ns, allocation noise to the mem section and the manifest's run totals.
func TestRecorderDeterminism(t *testing.T) {
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			g, _, err := gen.Dataset("wiki", 0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			dirA, dirB := t.TempDir(), t.TempDir()
			final := &heatCounters{}
			ma := recordOne(t, dirA, engine, g, final)
			mb := recordOne(t, dirB, engine, g)

			ra, rb := readRecord(t, dirA, ma.Run), readRecord(t, dirB, mb.Run)
			if a, b := ra.Raw[obs.SeriesSection], rb.Raw[obs.SeriesSection]; !bytes.Equal(a, b) {
				t.Errorf("series differs between same-seed runs:\nA:\n%s\nB:\n%s",
					firstDiffLine(a, b), firstDiffLine(b, a))
			}
			ma.WallNanos, mb.WallNanos = 0, 0
			ma.MemRun, mb.MemRun = obs.MemRun{}, obs.MemRun{}
			if ma != mb {
				t.Errorf("manifests differ beyond wall time and allocations:\nA: %+v\nB: %+v", ma, mb)
			}

			// The span stream carries no durations, so the spans section is
			// byte-identical across same-seed runs — the structural guarantee
			// the causal tracer stands on.
			sa, sb := ra.Raw[obs.SpansSection], rb.Raw[obs.SpansSection]
			if len(strings.Split(strings.TrimSpace(string(sa)), "\n")) < 1+ma.Supersteps {
				t.Errorf("spans section too small:\n%s", sa)
			}
			if !bytes.Equal(sa, sb) {
				t.Errorf("spans differ between same-seed runs:\nA:\n%s\nB:\n%s",
					firstDiffLine(sa, sb), firstDiffLine(sb, sa))
			}

			// The mem section is quarantined (alloc counts differ across
			// runs), but both runs must have one row per superstep.
			for _, r := range []*obs.Record{ra, rb} {
				if len(r.Mem) != ma.Supersteps {
					t.Errorf("%s: mem has %d rows, want %d", r.Manifest.Run, len(r.Mem), ma.Supersteps)
				}
			}

			// The heat and hotset sections carry counts only, so both are
			// byte-identical across same-seed runs — the guarantee the
			// report CLI's exact heat diff stands on.
			for _, s := range []obs.Section{obs.HeatSection, obs.HotsetSection} {
				if ha, hb := ra.Raw[s], rb.Raw[s]; !bytes.Equal(ha, hb) {
					t.Errorf("%s differs between same-seed runs:\nA:\n%s\nB:\n%s",
						s, firstDiffLine(ha, hb), firstDiffLine(hb, ha))
				}
			}
			if want := ma.Supersteps * ma.Workers; len(ra.Heat) != want {
				t.Errorf("heat has %d rows, want %d workers × %d supersteps",
					len(ra.Heat), ma.Workers, ma.Supersteps)
			}
			hot := ra.Hot
			if len(hot) == 0 {
				t.Errorf("%s: hotset empty after a run with traffic", engine)
			}
			for _, h := range hot {
				if h.Worker < 0 || h.Worker >= ma.Workers {
					t.Errorf("hot vertex %d attributed to worker %d of %d", h.Vertex, h.Worker, ma.Workers)
				}
			}
			// The hot set is no longer built per barrier: the one the run-end
			// event brings must be the exact top-k over the final counters.
			if want := obs.TopHotVertices(final.msgs, final.units, final.owner, obs.DefaultHotK); !reflect.DeepEqual(hot, want) {
				t.Errorf("hotset is not the top-k of the final counters:\ngot  %+v\nwant %+v", hot, want)
			}

			// The critpath section quarantines durations in its _ns columns;
			// the structural columns (step, gating worker, weight) must agree.
			pa, pb := ra.CritPath, rb.CritPath
			if ga, gb := span.GatingSequence(pa), span.GatingSequence(pb); ga != gb {
				t.Errorf("gating sequence differs between same-seed runs:\nA: %s\nB: %s", ga, gb)
			}
			if len(pa) != ma.Supersteps {
				t.Errorf("critpath has %d rows, want one per %d supersteps", len(pa), ma.Supersteps)
			}
			for i := range pa {
				if pa[i].Weight != pb[i].Weight {
					t.Errorf("step %d gating weight %d vs %d across same-seed runs",
						pa[i].Step, pa[i].Weight, pb[i].Weight)
				}
			}
		})
	}
}

// TestCritPathReconcilesWithTimings pins the accounting identity the report
// CLI checks: each critpath row's four columns sum to the same superstep wall
// the timings section records as prs+cmp+snd+syn — the span stream and the
// phase timers measure the same time, on every engine.
func TestCritPathReconcilesWithTimings(t *testing.T) {
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			g, _, err := gen.Dataset("wiki", 0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m := recordOne(t, dir, engine, g)
			rec := readRecord(t, dir, m.Run)
			paths, timings := rec.CritPath, rec.Timings
			if len(paths) != len(timings) {
				t.Fatalf("critpath has %d rows, timings %d", len(paths), len(timings))
			}
			for i, p := range paths {
				if tm := timings[i]; p.Wall() != tm.PRS+tm.CMP+tm.SND+tm.SYN {
					t.Errorf("step %d: critpath wall %dns != timings phase sum %dns",
						p.Step, p.Wall(), tm.PRS+tm.CMP+tm.SND+tm.SYN)
				}
				if p.Wall() <= 0 {
					t.Errorf("step %d: non-positive critpath wall %d", p.Step, p.Wall())
				}
			}
		})
	}
}

// readRecord reads a run's record through the strict reader.
func readRecord(t *testing.T, dir, run string) *obs.Record {
	t.Helper()
	rec, err := obs.ReadRecord(dir, run)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func firstDiffLine(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return al[i]
		}
	}
	return ""
}

func TestEnsureWritablePaths(t *testing.T) {
	dir := t.TempDir()
	if err := obs.EnsureWritableDir(filepath.Join(dir, "new", "nested")); err != nil {
		t.Errorf("creatable nested dir rejected: %v", err)
	}
	if err := obs.EnsureWritableDir(""); err == nil {
		t.Error("empty dir path accepted")
	}
	if err := obs.EnsureWritableFile(filepath.Join(dir, "out.csv")); err != nil {
		t.Errorf("creatable file rejected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "out.csv")); !os.IsNotExist(err) {
		t.Error("probe file left behind")
	}
	if err := obs.EnsureWritableFile(dir); err == nil {
		t.Error("directory accepted as a file path")
	}
	existing := filepath.Join(dir, "existing.csv")
	if err := os.WriteFile(existing, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := obs.EnsureWritableFile(existing); err != nil {
		t.Errorf("existing writable file rejected: %v", err)
	}
	if body, _ := os.ReadFile(existing); string(body) != "keep" {
		t.Error("preflight truncated an existing file")
	}
	// A file standing where a directory is needed fails both helpers.
	if err := obs.EnsureWritableDir(existing); err == nil {
		t.Error("file path accepted as a directory")
	}
	if err := obs.EnsureWritableFile(filepath.Join(existing, "x.csv")); err == nil {
		t.Error("path under a file accepted")
	}
}
