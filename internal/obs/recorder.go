package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"cyclops/internal/obs/span"
)

// Manifest is a recorded run's identity and totals — the header of a flight
// record. Everything in it except WallNanos is deterministic for a fixed
// (experiment, engine, seed, scale, cluster) tuple, which is what lets
// cyclops-report diff manifests exactly.
type Manifest struct {
	// Run is the run directory's base name (run-NNN-<engine>).
	Run string `json:"run"`
	// Experiment is the harness experiment id ("pagerank", "fig10", ...) or
	// the CLI's ad-hoc label; empty when unknown.
	Experiment string `json:"experiment,omitempty"`
	Engine     string `json:"engine"`
	Algorithm  string `json:"algorithm,omitempty"`
	Dataset    string `json:"dataset,omitempty"`
	// Partitioner is the vertex (or edge) partitioner name.
	Partitioner string  `json:"partitioner,omitempty"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale,omitempty"`
	Machines    int     `json:"machines,omitempty"`
	// WorkersPerMachine is threads per machine in the simulated cluster.
	WorkersPerMachine int `json:"workers_per_machine,omitempty"`
	Workers           int `json:"workers"`
	Vertices          int `json:"vertices"`
	Edges             int `json:"edges"`
	// Replicas is the replica (Cyclops) or mirror (GAS) count; 0 for Hama.
	Replicas   int64  `json:"replicas"`
	Supersteps int    `json:"supersteps"`
	StopReason string `json:"stop_reason"`
	// Recoveries counts checkpoint recoveries during the run; Replayed is
	// the supersteps they re-executed. Both zero on fault-free runs (the
	// fields are omitted, keeping fault-free manifests byte-stable across
	// this addition).
	Recoveries int `json:"recoveries,omitempty"`
	Replayed   int `json:"replayed_supersteps,omitempty"`
	// Messages is the run's message total (sum of the per-superstep
	// comm-matrix deltas).
	Messages int64 `json:"messages"`
	// WireBytes is the run's byte total (sum of the per-superstep wire
	// deltas): the binary frames that carry the messages — a header plus
	// each message's encoded size per batch — priced identically on both
	// networks, plus one header per round marker over TCP. Deterministic, so
	// diffed exactly. Omitted when zero to keep earlier manifests
	// byte-stable.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// ReplicaValueBytes is the replicated view's value memory (Replicas ×
	// sizeof(value)): the deterministic half of the paper's Table 4/5 memory
	// trade. Zero (omitted) for Hama, which buffers messages instead.
	ReplicaValueBytes int64 `json:"replica_value_bytes,omitempty"`
	// EdgeCut, PartitionBalance, ReplicationFactor and the ReplicaWorker*
	// trio stamp the load-time partition quality (§3.4, Fig 11): edges cut,
	// load balance (max/mean ≥ 1), replicas per vertex, and the min/median/max
	// of the per-worker replica placement. All deterministic for a fixed
	// (partitioner, seed) pair, so diffed exactly; zero values are omitted,
	// keeping earlier manifests byte-stable.
	EdgeCut           int64   `json:"edge_cut,omitempty"`
	PartitionBalance  float64 `json:"partition_balance,omitempty"`
	ReplicationFactor float64 `json:"replication_factor,omitempty"`
	ReplicaWorkerMin  int64   `json:"replica_worker_min,omitempty"`
	ReplicaWorkerMed  int64   `json:"replica_worker_median,omitempty"`
	ReplicaWorkerMax  int64   `json:"replica_worker_max,omitempty"`
	// ModelNanos is the cost model's deterministic run time estimate.
	ModelNanos float64 `json:"model_ns"`
	// WallNanos is measured wall time — the one machine-dependent field.
	WallNanos int64  `json:"wall_ns"`
	GoVersion string `json:"go_version"`
	GitRev    string `json:"git_rev,omitempty"`
	// ProfileDir and Profiles index the continuous-profiling harvest that
	// accompanied the run: the capture directory and the comma-separated
	// capture files retained when the run ended. Both empty (and omitted,
	// keeping earlier manifests byte-stable) when profiling was off.
	ProfileDir string `json:"profile_dir,omitempty"`
	Profiles   string `json:"profiles,omitempty"`
}

// RunMeta is the run context only the caller knows (the engines report graph
// shape and traffic; the CLI knows what experiment it was running and how the
// input was generated). Set it on the Recorder before the runs it describes.
type RunMeta struct {
	Experiment        string
	Algorithm         string
	Dataset           string
	Partitioner       string
	Seed              int64
	Scale             float64
	Machines          int
	WorkersPerMachine int
}

// Recorder is the Log plus a flush at run end: every engine run becomes a
// durable run directory under its root — manifest.json (identity + totals),
// the deterministic series.csv, spans.csv, heat.csv and hotset.csv, and the
// quarantined timings.csv, mem.csv and critpath.csv. One Recorder handles many
// consecutive runs — each OnRunStart/OnRunEnd pair becomes run-NNN-<engine>.
// Its Log is the store a diagnostics server reads while the run advances.
type Recorder struct {
	*Log
	root string

	// harvester, when profiling accompanies the runs, lets finished manifests
	// index the captures retained at that point. Set before the first run.
	harvester *Harvester

	// Guarded by Log.mu.
	seq       int
	meta      RunMeta
	manifests []Manifest
	err       error
}

// NewRecorder creates the record root (if needed), verifies it is writable,
// and numbers new runs after any run-* directories already present, so
// recording into an existing root appends instead of overwriting.
func NewRecorder(root string) (*Recorder, error) {
	if err := EnsureWritableDir(root); err != nil {
		return nil, fmt.Errorf("obs: record dir: %w", err)
	}
	r := &Recorder{Log: NewLog(), root: root}
	r.allSpans = true
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: record dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		parts := strings.SplitN(e.Name(), "-", 3)
		if len(parts) < 2 {
			continue
		}
		if n, err := strconv.Atoi(parts[1]); err == nil && n > r.seq {
			r.seq = n
		}
	}
	return r, nil
}

// SetMeta sets the run context stamped into subsequent manifests.
func (r *Recorder) SetMeta(m RunMeta) {
	r.mu.Lock()
	r.meta = m
	r.mu.Unlock()
}

// SetExperiment updates only the experiment id (the bench driver switches it
// between experiments while the generator parameters stay fixed).
func (r *Recorder) SetExperiment(id string) {
	r.mu.Lock()
	r.meta.Experiment = id
	r.mu.Unlock()
}

// Err returns the first write error, if any. Check it after the runs finish:
// the Hooks interface has no error channel, so failures are deferred here.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Manifests returns the manifests of all completed runs, in run order.
func (r *Recorder) Manifests() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Manifest(nil), r.manifests...)
}

// OnRunEnd implements Hooks: closes the Log's run, stamps the manifest and
// writes the run directory.
func (r *Recorder) OnRunEnd(e RunEnd) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.end(e)
	r.seq++
	info := r.info
	m := Manifest{
		Run:               fmt.Sprintf("run-%03d-%s", r.seq, info.Engine),
		Experiment:        r.meta.Experiment,
		Engine:            info.Engine,
		Algorithm:         r.meta.Algorithm,
		Dataset:           r.meta.Dataset,
		Partitioner:       r.meta.Partitioner,
		Seed:              r.meta.Seed,
		Scale:             r.meta.Scale,
		Machines:          r.meta.Machines,
		WorkersPerMachine: r.meta.WorkersPerMachine,
		Workers:           info.Workers,
		Vertices:          info.Vertices,
		Edges:             info.Edges,
		Replicas:          info.Replicas,
		Supersteps:        len(r.steps),
		StopReason:        e.Reason,
		Recoveries:        len(r.recoveries),
		Replayed:          r.replayed,
		ReplicaValueBytes: info.ReplicaValueBytes,
		EdgeCut:           info.EdgeCut,
		PartitionBalance:  info.PartitionBalance,
		WallNanos:         int64(time.Since(r.started)),
		GoVersion:         runtime.Version(),
		GitRev:            gitRev(),
	}
	if info.Vertices > 0 {
		m.ReplicationFactor = float64(info.Replicas) / float64(info.Vertices)
	}
	if n := len(info.WorkerReplicas); n > 0 {
		sorted := append([]int64(nil), info.WorkerReplicas...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.ReplicaWorkerMin = sorted[0]
		m.ReplicaWorkerMed = sorted[n/2]
		m.ReplicaWorkerMax = sorted[n-1]
	}
	for i, s := range r.steps {
		m.Messages += s.msgs
		m.WireBytes += s.wire
		m.ModelNanos += r.stats[i].ModelNanos
	}
	if h := r.harvester; h != nil {
		m.ProfileDir, m.Profiles = h.Dir(), strings.Join(h.Files(), ",")
	}
	if err := r.write(m); err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("obs: record %s: %w", m.Run, err)
		}
		return
	}
	r.manifests = append(r.manifests, m)
}

// write materialises the Log's run as a run directory. The data files are
// written first and manifest.json last — atomically, via temp + fsync +
// rename — because the /runs endpoint (and ReadManifests generally) treats
// the manifest's presence as "this run is complete": a listing racing an
// in-progress flush either sees the whole run or none of it, never a
// half-written manifest or a manifest whose series is still missing.
// timings.csv, mem.csv and critpath.csv carry machine-dependent columns, so
// the perf gate reads but never exact-compares them; the others are counts
// only — byte-identical across same-seed runs.
func (r *Recorder) write(m Manifest) error {
	dir := filepath.Join(r.root, m.Run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One file at a time, so only one rendering is alive at once.
	var err error
	put := func(name string, blob []byte) {
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), blob, 0o644)
		}
	}
	put("series.csv", r.seriesCSV())
	put("timings.csv", r.timingsCSV())
	put("mem.csv", EncodeMemCSV(r.mem))
	put("spans.csv", span.EncodeCSV(r.spans))
	put("critpath.csv", span.EncodeCritPathCSV(span.CriticalPath(r.spans)))
	put("heat.csv", EncodeHeatCSV(r.heat))
	put("hotset.csv", EncodeHotsetCSV(r.hot))
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, "manifest.json"), append(blob, '\n'))
}

// atomicWriteFile writes path so readers only ever observe the old content
// or the complete new content: the bytes land in a temp file in the same
// directory, are fsynced, and the temp file is renamed over path.
func atomicWriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadManifests loads the manifests of every run-* directory under root,
// sorted by run name (i.e. recording order).
func ReadManifests(root string) ([]Manifest, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("obs: read record dir: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "run-") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(root, e.Name(), "manifest.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // a foreign or half-written directory; skip it
			}
			return nil, fmt.Errorf("obs: read manifest: %w", err)
		}
		var m Manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("obs: parse %s/manifest.json: %w", e.Name(), err)
		}
		if m.Run == "" {
			m.Run = e.Name()
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out, nil
}

// gitRev reports the vcs revision baked into the binary by the Go toolchain,
// with a "-dirty" suffix for modified working trees. Empty for test binaries
// and builds outside a repository.
func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "-dirty"
	}
	return rev
}
