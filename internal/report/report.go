// Package report turns flight records (internal/obs.Recorder) into
// normalized baselines and diffs them — the regression gate behind
// cmd/cyclops-report and the CI perf-gate job. Deterministic counts
// (supersteps, messages, wire bytes, replicas) must match exactly; the cost
// model's time estimate gets a relative tolerance band; wall time is never
// compared (it belongs to the machine, not the code).
package report

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
)

// Entry is one run, normalized for comparison. Runs are matched by
// (Experiment, Engine, ordinal): the ordinal separates repeated runs of the
// same engine within one experiment (e.g. a scalability sweep).
type Entry struct {
	Experiment string  `json:"experiment,omitempty"`
	Engine     string  `json:"engine"`
	Algorithm  string  `json:"algorithm,omitempty"`
	Dataset    string  `json:"dataset,omitempty"`
	Supersteps int     `json:"supersteps"`
	Messages   int64   `json:"messages"`
	Replicas   int64   `json:"replicas"`
	ModelMs    float64 `json:"model_ms"`
	// WireBytes is the run's traffic in bytes: the encoded frames on the
	// wire, deterministic and gated exactly.
	WireBytes int64 `json:"wire_bytes,omitempty"`
	// ReplicaValueBytes is the replicated view's deterministic value memory
	// (Replicas × sizeof(value)) — the Table 4/5 replica side.
	ReplicaValueBytes int64 `json:"replica_value_bytes,omitempty"`
	// AllocsPerStep is the manifest's exact run allocation count divided by
	// its supersteps. The count takes in whatever the process allocated
	// during the run, observers included, so diffs cap it (Options.AllocTol)
	// and never compare it exactly.
	AllocsPerStep float64 `json:"allocs_per_superstep,omitempty"`
	// CritPath is the run's critical-path structure: the gating-worker
	// sequence of its critical path ("step:worker" pairs, durations
	// excluded), compared exactly.
	CritPath string `json:"critpath,omitempty"`
	// Heat digests the run's heat structure (heat rows, hot-set entries, and
	// a hash over both sections' bytes). Heat data is all counts, so the
	// digest compares exactly.
	Heat string `json:"heat,omitempty"`
}

// Baseline is a normalized set of runs — what cyclops-bench -record emits as
// BENCH_baseline.json and what the CI gate commits.
type Baseline struct {
	// Scale and Seed identify the generator configuration the entries are
	// only comparable under.
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Entries []Entry `json:"entries"`
}

// FromRecords normalizes the runs ms name, reading each run's record under
// root strictly: the manifest's counts, the critical path's gating sequence
// and the heat digest.
func FromRecords(root string, ms []obs.Manifest) (Baseline, error) {
	var b Baseline
	for _, run := range ms {
		rec, err := obs.ReadRecord(root, run.Run)
		if err != nil {
			return Baseline{}, fmt.Errorf("report: %w", err)
		}
		m := rec.Manifest
		// The first run's scale and seed; no allocs per superstep ("no alloc
		// data on this side") for a run without supersteps.
		b.Scale, b.Seed = cmp.Or(b.Scale, m.Scale), cmp.Or(b.Seed, m.Seed)
		var allocsPerStep float64
		if m.Supersteps > 0 {
			allocsPerStep = float64(m.Allocs) / float64(m.Supersteps)
		}
		h := fnv.New32a()
		h.Write(rec.Raw[obs.HeatSection])   //nolint:errcheck // hash.Hash never errors
		h.Write(rec.Raw[obs.HotsetSection]) //nolint:errcheck
		b.Entries = append(b.Entries, Entry{
			Experiment:        m.Experiment,
			Engine:            m.Engine,
			Algorithm:         m.Algorithm,
			Dataset:           m.Dataset,
			Supersteps:        m.Supersteps,
			Messages:          m.Messages,
			Replicas:          m.Replicas,
			ModelMs:           m.ModelNanos / 1e6,
			WireBytes:         m.WireBytes,
			ReplicaValueBytes: m.ReplicaValueBytes,
			AllocsPerStep:     allocsPerStep,
			CritPath:          span.GatingSequence(rec.CritPath),
			Heat:              fmt.Sprintf("%dr/%dh:%08x", len(rec.Heat), len(rec.Hot), h.Sum32()),
		})
	}
	return b, nil
}

// Load reads a comparison side: a directory is a flight-record root (every
// run record in it, through FromRecords), a file is a Baseline JSON.
func Load(path string) (Baseline, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Baseline{}, fmt.Errorf("report: %w", err)
	}
	if fi.IsDir() {
		ms, err := obs.ReadManifests(path)
		if err != nil {
			return Baseline{}, err
		}
		if len(ms) == 0 {
			return Baseline{}, fmt.Errorf("report: %s holds no run records", path)
		}
		return FromRecords(path, ms)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, fmt.Errorf("report: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(blob, &b); err != nil {
		return Baseline{}, fmt.Errorf("report: parse %s: %w", path, err)
	}
	if len(b.Entries) == 0 {
		return Baseline{}, fmt.Errorf("report: %s has no entries", path)
	}
	return b, nil
}

// Write stores a Baseline as deterministic, committable JSON.
func Write(path string, b Baseline) error {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// key matches entries across the two sides.
func (e Entry) key(ordinal int) string {
	exp := e.Experiment
	if exp == "" {
		exp = "-"
	}
	return fmt.Sprintf("%s/%s#%d", exp, e.Engine, ordinal)
}

// keyed assigns ordinals within each (experiment, engine) pair, preserving
// run order.
func keyed(b Baseline) (keys []string, byKey map[string]Entry) {
	byKey = make(map[string]Entry)
	count := make(map[string]int)
	for _, e := range b.Entries {
		pair := e.Experiment + "/" + e.Engine
		k := e.key(count[pair])
		count[pair]++
		keys = append(keys, k)
		byKey[k] = e
	}
	return keys, byKey
}

// Options tunes a diff.
type Options struct {
	// ModelTol is the relative tolerance for model_ms (default 0.05). The
	// model is arithmetic over counts — deterministic in principle — but the
	// band absorbs deliberate cost-constant retuning at minor magnitude;
	// count drift still fails exactly.
	ModelTol float64
	// AllocTol is the relative tolerance for allocs_per_superstep (default
	// 0.25). The run count is exact, but GOMAXPROCS, the Go version and the
	// runtime's own goroutines move it by a few percent, so the gate exists
	// to catch allocation regressions, not to pin a count. Only a rise
	// beyond it regresses; a drop of any size passes.
	AllocTol float64
}

func (o Options) normalize() Options {
	if o.ModelTol <= 0 {
		o.ModelTol = 0.05
	}
	if o.AllocTol <= 0 {
		o.AllocTol = 0.25
	}
	return o
}

// Delta is one metric's comparison in one matched run.
type Delta struct {
	Run    string // match key: experiment/engine#ordinal
	Metric string
	Old    float64
	New    float64
	// Rel is the relative change (new-old)/old; ±Inf when old == 0 != new.
	Rel float64
	// Exact marks metrics compared by equality rather than tolerance.
	Exact bool
	// Regression marks deltas outside the allowed band.
	Regression bool
	// OldText/NewText carry string-valued metrics (the critical-path gating
	// sequence); when either is set the numeric fields are unused.
	OldText string
	NewText string
}

// Result is a full diff.
type Result struct {
	Deltas []Delta
	// MissingInNew and MissingInOld hold match keys present on only one side
	// (both are regressions: coverage loss and unvetted additions).
	MissingInNew []string
	MissingInOld []string
}

// Regressions returns the deltas outside their bands.
func (r Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the diff is clean: every run matched and every metric
// within its band.
func (r Result) OK() bool {
	return len(r.Regressions()) == 0 && len(r.MissingInNew) == 0 && len(r.MissingInOld) == 0
}

// Err returns nil for a clean diff and a named-metric error otherwise — the
// CLI's non-zero exit for CI gating.
func (r Result) Err() error {
	if regs := r.Regressions(); len(regs) > 0 {
		d := regs[0]
		oldV, newV := fnum(d.Old), fnum(d.New)
		if d.OldText != "" || d.NewText != "" {
			oldV, newV = ftext(d.OldText), ftext(d.NewText)
		}
		return fmt.Errorf("report: %d metric(s) regressed, first: %s %s %s -> %s",
			len(regs), d.Run, d.Metric, oldV, newV)
	}
	if len(r.MissingInNew) > 0 {
		return fmt.Errorf("report: run %s is in the baseline but not in the new recording", r.MissingInNew[0])
	}
	if len(r.MissingInOld) > 0 {
		return fmt.Errorf("report: run %s is in the new recording but not in the baseline", r.MissingInOld[0])
	}
	return nil
}

// Diff compares old (the baseline) against new (the fresh recording).
func Diff(old, new Baseline, opts Options) Result {
	opts = opts.normalize()
	oldKeys, oldBy := keyed(old)
	newKeys, newBy := keyed(new)

	var res Result
	for _, k := range oldKeys {
		if _, ok := newBy[k]; !ok {
			res.MissingInNew = append(res.MissingInNew, k)
		}
	}
	for _, k := range newKeys {
		if _, ok := oldBy[k]; !ok {
			res.MissingInOld = append(res.MissingInOld, k)
		}
	}

	for _, k := range oldKeys {
		n, ok := newBy[k]
		if !ok {
			continue
		}
		o := oldBy[k]
		res.Deltas = append(res.Deltas,
			exact(k, "supersteps", float64(o.Supersteps), float64(n.Supersteps)),
			exact(k, "messages", float64(o.Messages), float64(n.Messages)),
			exact(k, "wire_bytes", float64(o.WireBytes), float64(n.WireBytes)),
			exact(k, "replicas", float64(o.Replicas), float64(n.Replicas)),
			banded(k, "model_ms", o.ModelMs, n.ModelMs, opts.ModelTol),
			// Every record carries the critical-path structure, the heat
			// digest (every count in the heat and hotset sections) and the
			// replicated value memory: all deterministic, all exact.
			exactText(k, "critpath", o.CritPath, n.CritPath),
			exactText(k, "heat", o.Heat, n.Heat),
			exact(k, "replica_value_bytes", float64(o.ReplicaValueBytes), float64(n.ReplicaValueBytes)),
		)
		// Allocation counts are machine-dependent: capped, never exact — and
		// the cap is one-sided, because allocating less is not a regression.
		if o.AllocsPerStep != 0 && n.AllocsPerStep != 0 {
			res.Deltas = append(res.Deltas,
				capped(k, "allocs_per_superstep", o.AllocsPerStep, n.AllocsPerStep, opts.AllocTol))
		}
	}
	return res
}

func rel(old, new float64) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return (new - old) / old
}

func exact(run, metric string, old, new float64) Delta {
	return Delta{Run: run, Metric: metric, Old: old, New: new,
		Rel: rel(old, new), Exact: true, Regression: old != new}
}

func exactText(run, metric, old, new string) Delta {
	return Delta{Run: run, Metric: metric, OldText: old, NewText: new,
		Exact: true, Regression: old != new}
}

func banded(run, metric string, old, new, tol float64) Delta {
	r := rel(old, new)
	return Delta{Run: run, Metric: metric, Old: old, New: new,
		Rel: r, Regression: math.Abs(r) > tol}
}

// capped is the one-sided band: only a rise beyond tol regresses.
func capped(run, metric string, old, new, tol float64) Delta {
	r := rel(old, new)
	return Delta{Run: run, Metric: metric, Old: old, New: new, Rel: r, Regression: r > tol}
}

func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// WriteMarkdown renders the diff as a markdown table (regressions first),
// followed by any unmatched runs.
func (r Result) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	regs := r.Regressions()
	if r.OK() {
		b.WriteString("No regressions: all runs matched, all metrics within bounds.\n\n")
	} else {
		fmt.Fprintf(&b, "**%d regression(s)**", len(regs))
		if n := len(r.MissingInNew) + len(r.MissingInOld); n > 0 {
			fmt.Fprintf(&b, ", %d unmatched run(s)", n)
		}
		b.WriteString("\n\n")
	}
	b.WriteString("| run | metric | baseline | current | delta | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	rows := append(append([]Delta(nil), regs...), okDeltas(r.Deltas)...)
	for _, d := range rows {
		status := "ok"
		if d.Regression {
			status = "REGRESSION"
		}
		mode := "~"
		if d.Exact {
			mode = "="
		}
		oldCell, newCell, relCell := fnum(d.Old), fnum(d.New), frel(d.Rel)
		if d.OldText != "" || d.NewText != "" {
			oldCell, newCell, relCell = ftext(d.OldText), ftext(d.NewText), "—"
		}
		fmt.Fprintf(&b, "| %s | %s%s | %s | %s | %s | %s |\n",
			d.Run, d.Metric, mode, oldCell, newCell, relCell, status)
	}
	for _, k := range r.MissingInNew {
		fmt.Fprintf(&b, "| %s | — | — | missing | — | REGRESSION |\n", k)
	}
	for _, k := range r.MissingInOld {
		fmt.Fprintf(&b, "| %s | — | missing | — | — | REGRESSION |\n", k)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func okDeltas(ds []Delta) []Delta {
	var out []Delta
	for _, d := range ds {
		if !d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// ftext renders a string metric cell, truncated so long gating sequences
// don't blow up the table (the full sequences live in the records).
func ftext(s string) string {
	if s == "" {
		return "—"
	}
	if len(s) > 32 {
		return s[:29] + "..."
	}
	return s
}

func frel(r float64) string {
	switch {
	case r == 0:
		return "0%"
	case math.IsInf(r, 1):
		return "+inf"
	case math.IsInf(r, -1):
		return "-inf"
	default:
		return fmt.Sprintf("%+.2f%%", r*100)
	}
}
