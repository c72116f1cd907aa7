package obs_test

// Flight recorder tests: run directories carry a faithful manifest and a
// deterministic series, same-seed runs of every engine produce byte-identical
// series.csv files (the guarantee cyclops-report's exact diff relies on), and
// the writable-path preflight helpers reject unusable paths at flag-parse
// time instead of after a run.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

	// The on-disk manifest round-trips and matches.
	blob, err := os.ReadFile(filepath.Join(dir, m.Run, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk obs.Manifest
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk != m {
		t.Errorf("on-disk manifest %+v != returned %+v", onDisk, m)
	}

	series, err := os.ReadFile(filepath.Join(dir, m.Run, "series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(series)), "\n")
	if len(lines) != 1+m.Supersteps {
		t.Fatalf("series.csv has %d lines, want header + %d steps", len(lines), m.Supersteps)
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

	timings, err := os.ReadFile(filepath.Join(dir, m.Run, "timings.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(timings), "step,prs_ns,cmp_ns,snd_ns,syn_ns,wall_ns") {
		t.Errorf("timings header = %q", strings.SplitN(string(timings), "\n", 2)[0])
	}

	// Every run directory carries the quarantined memory telemetry: one
	// mem.csv row per superstep, parseable back through the obs API.
	memBlob, err := os.ReadFile(filepath.Join(dir, m.Run, "mem.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(memBlob), obs.MemCSVHeader+"\n") {
		t.Errorf("mem.csv header = %q", strings.SplitN(string(memBlob), "\n", 2)[0])
	}
	memSteps, err := obs.ParseMemCSV(memBlob)
	if err != nil {
		t.Fatal(err)
	}
	if len(memSteps) != m.Supersteps {
		t.Errorf("mem.csv has %d rows, want one per %d supersteps", len(memSteps), m.Supersteps)
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

	// The heat observatory artifacts are present and parse back exactly.
	if rows := loadHeat(t, filepath.Join(dir, m.Run)); len(rows) != m.Supersteps*m.Workers {
		t.Errorf("heat.csv has %d rows, want %d workers × %d supersteps",
			len(rows), m.Workers, m.Supersteps)
	}
	if hot := loadHotset(t, filepath.Join(dir, m.Run)); len(hot) == 0 {
		t.Error("hotset.csv empty after a PageRank run")
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

// TestRecorderDeterminism is the guarantee the perf gate stands on: two
// same-seed runs of the same engine produce byte-identical series.csv files.
// Wall-clock noise is confined to timings.csv and the manifest's wall_ns.
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

			a, err := os.ReadFile(filepath.Join(dirA, ma.Run, "series.csv"))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirB, mb.Run, "series.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("series.csv differs between same-seed runs:\nA:\n%s\nB:\n%s",
					firstDiffLine(a, b), firstDiffLine(b, a))
			}
			ma.WallNanos, mb.WallNanos = 0, 0
			if ma != mb {
				t.Errorf("manifests differ beyond wall time:\nA: %+v\nB: %+v", ma, mb)
			}

			// The span stream carries no durations, so spans.csv is
			// byte-identical across same-seed runs — the structural guarantee
			// the causal tracer stands on.
			sa, err := os.ReadFile(filepath.Join(dirA, ma.Run, "spans.csv"))
			if err != nil {
				t.Fatal(err)
			}
			sb, err := os.ReadFile(filepath.Join(dirB, mb.Run, "spans.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if len(strings.Split(strings.TrimSpace(string(sa)), "\n")) < 1+ma.Supersteps {
				t.Errorf("spans.csv too small:\n%s", sa)
			}
			if !bytes.Equal(sa, sb) {
				t.Errorf("spans.csv differs between same-seed runs:\nA:\n%s\nB:\n%s",
					firstDiffLine(sa, sb), firstDiffLine(sb, sa))
			}

			// mem.csv is quarantined (alloc counts differ across runs), but
			// both runs must have one parseable row per superstep.
			for _, runDir := range []string{filepath.Join(dirA, ma.Run), filepath.Join(dirB, mb.Run)} {
				blob, err := os.ReadFile(filepath.Join(runDir, "mem.csv"))
				if err != nil {
					t.Fatal(err)
				}
				steps, err := obs.ParseMemCSV(blob)
				if err != nil {
					t.Fatal(err)
				}
				if len(steps) != ma.Supersteps {
					t.Errorf("%s: mem.csv has %d rows, want %d", runDir, len(steps), ma.Supersteps)
				}
			}

			// heat.csv and hotset.csv carry counts only, so both are
			// byte-identical across same-seed runs — the guarantee the
			// report CLI's exact heat diff stands on.
			for _, name := range []string{"heat.csv", "hotset.csv"} {
				ha, err := os.ReadFile(filepath.Join(dirA, ma.Run, name))
				if err != nil {
					t.Fatal(err)
				}
				hb, err := os.ReadFile(filepath.Join(dirB, mb.Run, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ha, hb) {
					t.Errorf("%s differs between same-seed runs:\nA:\n%s\nB:\n%s",
						name, firstDiffLine(ha, hb), firstDiffLine(hb, ha))
				}
			}
			rows := loadHeat(t, filepath.Join(dirA, ma.Run))
			if want := ma.Supersteps * ma.Workers; len(rows) != want {
				t.Errorf("heat.csv has %d rows, want %d workers × %d supersteps",
					len(rows), ma.Workers, ma.Supersteps)
			}
			hot := loadHotset(t, filepath.Join(dirA, ma.Run))
			if len(hot) == 0 {
				t.Errorf("%s: hotset.csv empty after a run with traffic", engine)
			}
			for _, h := range hot {
				if h.Worker < 0 || h.Worker >= ma.Workers {
					t.Errorf("hot vertex %d attributed to worker %d of %d", h.Vertex, h.Worker, ma.Workers)
				}
			}
			// The hot set is no longer built per barrier: the one the run-end
			// event brings must be the exact top-k over the final counters.
			if want := obs.TopHotVertices(final.msgs, final.units, final.owner, obs.DefaultHotK); !reflect.DeepEqual(hot, want) {
				t.Errorf("hotset.csv is not the top-k of the final counters:\ngot  %+v\nwant %+v", hot, want)
			}

			// critpath.csv quarantines durations in its _ns columns; the
			// structural columns (step, gating worker, weight) must agree.
			pa := loadCritPath(t, filepath.Join(dirA, ma.Run))
			pb := loadCritPath(t, filepath.Join(dirB, mb.Run))
			if ga, gb := span.GatingSequence(pa), span.GatingSequence(pb); ga != gb {
				t.Errorf("gating sequence differs between same-seed runs:\nA: %s\nB: %s", ga, gb)
			}
			if len(pa) != ma.Supersteps {
				t.Errorf("critpath.csv has %d rows, want one per %d supersteps", len(pa), ma.Supersteps)
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
// CLI checks: each critpath.csv row's four columns sum to the same superstep
// wall timings.csv records as prs+cmp+snd+syn — the span stream and the phase
// timers measure the same time, on every engine.
func TestCritPathReconcilesWithTimings(t *testing.T) {
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		t.Run(engine, func(t *testing.T) {
			g, _, err := gen.Dataset("wiki", 0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			m := recordOne(t, dir, engine, g)
			paths := loadCritPath(t, filepath.Join(dir, m.Run))
			walls := loadPhaseWalls(t, filepath.Join(dir, m.Run, "timings.csv"))
			if len(paths) != len(walls) {
				t.Fatalf("critpath has %d rows, timings %d", len(paths), len(walls))
			}
			for i, p := range paths {
				if p.Wall() != walls[i] {
					t.Errorf("step %d: critpath wall %dns != timings phase sum %dns",
						p.Step, p.Wall(), walls[i])
				}
				if p.Wall() <= 0 {
					t.Errorf("step %d: non-positive critpath wall %d", p.Step, p.Wall())
				}
			}
		})
	}
}

func loadHeat(t *testing.T, runDir string) []obs.HeatPartition {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(runDir, "heat.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := obs.ParseHeatCSV(blob)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func loadHotset(t *testing.T, runDir string) []obs.HotVertex {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(runDir, "hotset.csv"))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := obs.ParseHotsetCSV(blob)
	if err != nil {
		t.Fatal(err)
	}
	return hot
}

func loadCritPath(t *testing.T, runDir string) []span.StepPath {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(runDir, "critpath.csv"))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := span.ParseCritPathCSV(blob)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// loadPhaseWalls reads timings.csv into per-step prs+cmp+snd+syn sums.
func loadPhaseWalls(t *testing.T, path string) []int64 {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	var out []int64
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		if len(f) != 6 {
			t.Fatalf("timings row %q", ln)
		}
		var sum int64
		for _, col := range f[1:5] {
			v, err := strconv.ParseInt(col, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		out = append(out, sum)
	}
	return out
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
