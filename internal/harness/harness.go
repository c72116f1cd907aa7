// Package harness regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a named runner that builds the scaled
// synthetic datasets, runs the relevant engines, and prints the same rows or
// series the paper reports. The per-experiment index in DESIGN.md maps each
// runner to its paper artifact; cmd/cyclops-bench is a thin wrapper around
// this package.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cyclops/internal/aggregate"
	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/transport"
)

// Options configures all experiments.
type Options struct {
	// Scale multiplies the default dataset sizes (1.0 ≈ laptop-sized
	// substitutions of the paper's graphs; see internal/gen).
	Scale float64
	// Seed drives all synthetic data.
	Seed int64
	// Machines is the simulated machine count (paper: 6).
	Machines int
	// WorkersPerMachine is the flat worker count per machine (paper: 8,
	// because the JVM capped useful threads at 8 per box, §6.3).
	WorkersPerMachine int
	// Eps is the PageRank convergence bound.
	Eps float64
	// Hooks, when set, is installed in every engine an experiment runs —
	// cyclops-bench wires its obs.Session here, so -verbose narrates each
	// experiment's supersteps live and -record files every run.
	Hooks obs.Hooks
	// Audit turns on each engine's invariant auditor (replica consistency on
	// Cyclops, message conservation on Hama, mirror coherence on PowerGraph).
	// A violation fails the experiment with *obs.AuditError.
	Audit bool
	// FaultPlan overrides the deterministic fault schedule of the faults
	// experiment (nil derives one from Seed).
	FaultPlan *fault.Plan
}

// DefaultOptions mirrors the paper's testbed shape at laptop scale.
func DefaultOptions() Options {
	return Options{
		Scale:             1.0,
		Seed:              1,
		Machines:          6,
		WorkersPerMachine: 8,
		Eps:               1e-9,
	}
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Scale <= 0 {
		o.Scale = d.Scale
	}
	if o.Machines <= 0 {
		o.Machines = d.Machines
	}
	if o.WorkersPerMachine <= 0 {
		o.WorkersPerMachine = d.WorkersPerMachine
	}
	if o.Eps <= 0 {
		o.Eps = d.Eps
	}
	return o
}

// flat returns the Hama / flat-Cyclops topology for these options.
func (o Options) flat() cluster.Config { return cluster.Flat(o.Machines, o.WorkersPerMachine) }

// mt returns the CyclopsMT topology (one worker per machine, W threads, the
// paper's best receiver count of 2 from Figure 12).
func (o Options) mt() cluster.Config { return cluster.MT(o.Machines, o.WorkersPerMachine, 2) }

// Experiment is a named, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

// Experiments lists all runnable artifacts in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig3", "Fig 3: BSP convergence asymmetry, redundant messages, error distribution", Fig3},
		{"fig4", "Fig 4: per-iteration communication cost of the four models", Fig4Models},
		{"fig9.1", "Fig 9(1): speedup over Hama, 48 workers, all workloads", Fig9Speedup},
		{"fig9.2", "Fig 9(2): scalability with 6..48 workers", Fig9Scalability},
		{"fig10.1", "Fig 10(1): execution time breakdown (SYN/PRS/CMP/SND)", Fig10Breakdown},
		{"fig10.2", "Fig 10(2): active vertices per superstep (PR, gweb)", Fig10Active},
		{"fig10.3", "Fig 10(3): messages per superstep (PR, gweb)", Fig10Messages},
		{"fig11.1", "Fig 11(1): replication factor vs #partitions (wiki)", Fig11PartitionsSweep},
		{"fig11.2", "Fig 11(2): replication factor per dataset (48 partitions)", Fig11Datasets},
		{"fig11.3", "Fig 11(3): speedups under Metis partitioning", Fig11Metis},
		{"fig12", "Fig 12: CyclopsMT configuration sweep (PR, gweb)", Fig12MTSweep},
		{"fig13.1", "Fig 13(1): graph ingress time breakdown", Fig13Ingress},
		{"fig13.2", "Fig 13(2): ALS scaling with graph size", Fig13ScaleSize},
		{"fig13.3", "Fig 13(3): L1-norm convergence over time", Fig13Convergence},
		{"table2", "Table 2: memory behaviour (PR, wiki)", Table2Memory},
		{"table3", "Table 3: message-passing microbenchmark", Table3Micro},
		{"table4", "Table 4: CyclopsMT vs PowerGraph (PR)", Table4PowerGraph},
		{"comm", "Comm observatory: per-worker traffic matrix and skew (PR, gweb)", Comm},
		{"faults", "Fault tolerance: checkpoint recovery under an injected fault plan (§3.6)", Faults},
		{"pagerank", "CI perf gate: PageRank on gweb across engines (deterministic)", PagerankGate},
		{"ablation.queue", "Ablation: locked global queue vs per-sender queues", AblationQueue},
		{"ablation.combiner", "Ablation: Hama message combiner on/off", AblationCombiner},
		{"ablation.activation", "Ablation: dynamic activation vs eager recompute", AblationActivation},
		{"ablation.detect", "Ablation: convergence detectors (global / local / proportion)", AblationDetectors},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// dataset builds a scaled dataset or fails loudly.
func dataset(o Options, name string) (*graph.Graph, gen.Meta, error) {
	return gen.Dataset(name, o.Scale, o.Seed)
}

// ---------------------------------------------------------------------------
// Uniform workload runner across engines.

// RunResult summarises one engine run for the comparison tables.
type RunResult struct {
	Engine      string
	Config      cluster.Config
	Trace       *metrics.Trace
	Wall        time.Duration
	ModelMs     float64
	Messages    int64
	Replication float64
	Supersteps  int
	// Values is the row's []float64 projection of the per-vertex results:
	// ranks, distances, labels widened to float64, or ALS's latent vectors
	// laid end to end.
	Values []float64
	// Ingress carries Cyclops' replica-creation breakdown.
	Ingress cyclops.IngressStats
	// Transport holds the raw wire counters at the end of the run — the
	// ground truth the /comm traffic matrix must sum to exactly.
	Transport transport.Snapshot
}

// defaultParams is the experiments' starting point: PageRank's 200-step
// budget and three ALS sweeps. Experiments that run other algorithms choose
// their budgets where they choose the algorithm (workloadSpec.prepare).
func defaultParams(o Options) Params {
	return Params{
		MaxSteps: 200, Eps: o.Eps, alsSweeps: 3,
		Hooks: o.Hooks, Audit: o.Audit,
	}
}

// ---------------------------------------------------------------------------
// Table rendering helpers.

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...any) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// sortedKeys returns map keys in sorted order (stable output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// speedup guards against divide-by-zero when model times are tiny.
func speedup(base, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return base / x
}

// haltForPR builds the BSP global-error halt of Figure 2.
func haltForPR(n int, eps float64) aggregate.HaltFunc {
	return aggregate.GlobalErrorHalt(algorithms.ErrorAggregator, n, eps)
}
