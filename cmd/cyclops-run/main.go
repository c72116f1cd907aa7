// Command cyclops-run executes one graph algorithm over one graph on a
// chosen engine and prints summary statistics (and optionally the result
// values). The graph comes either from a named synthetic dataset or from an
// edge-list file in the SNAP text format, whose vertex ids may be any
// non-negative integers: -source and the printed results speak the file's ids.
//
// Examples:
//
//	cyclops-run -algo PR -dataset gweb -engine cyclops -machines 6 -threads 8
//	cyclops-run -algo SSSP -graph road.txt -engine hama
//	cyclops-run -algo PR -dataset amazon -engine powergraph -audit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"cyclops/internal/cluster"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/harness"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cyclops-run:", err)
		os.Exit(1)
	}
}

// cliMain is the whole CLI behind a testable seam: flags in, output to the
// given writers, errors returned instead of exiting.
func cliMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cyclops-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo      = fs.String("algo", "PR", "algorithm: PR, SSSP, CD, CC")
		dsName    = fs.String("dataset", "", "synthetic dataset name (see graphgen -list)")
		graphFile = fs.String("graph", "", "edge-list file (alternative to -dataset; .bin files use the binary CSR format)")
		engine    = fs.String("engine", "cyclops", "engine: hama, cyclops, powergraph")
		scale     = fs.Float64("scale", 1.0, "dataset scale factor")
		seed      = fs.Int64("seed", 1, "dataset seed")
		machines  = fs.Int("machines", 6, "simulated machines")
		workers   = fs.Int("workers", 1, "workers per machine")
		threads   = fs.Int("threads", 1, "compute threads per worker (CyclopsMT)")
		receivers = fs.Int("receivers", 1, "receiver threads per worker (CyclopsMT)")
		partName  = fs.String("partitioner", "hash", "partitioner: hash, metis, range")
		eps       = fs.Float64("eps", 1e-9, "convergence bound (PR)")
		steps     = fs.Int("steps", 100, "max supersteps")
		source    = fs.Uint("source", 0, "source vertex (SSSP), as the graph file names it")
		top       = fs.Int("top", 5, "print the top-N result vertices")
		commCSV   = fs.String("comm", "", "write the per-superstep worker×worker traffic matrix to this CSV file")
		record    = fs.String("record", "", "record the run as one flight-record file, run-NNN-<engine>.rec, under this directory (read it with cyclops-report)")
		skewFlag  = fs.Bool("skew", false, "print the per-superstep load-imbalance profile after the run")
		audit     = fs.Bool("audit", false, "verify the engine's structural invariants each superstep (replica consistency, message conservation, mirror coherence); a violation fails the run")
		debugAddr = fs.String("debug-addr", "", "serve live diagnostics (/metrics, /trace, /comm, /mem, /heat, /spans, /runs, /profiles, /debug/pprof) on this address")
		slowPhase = fs.Float64("slow-phase", 3, "warn when a phase runs slower than this factor times its trailing mean (<=1 disables the detector)")
		profDir   = fs.String("profile-dir", "", "continuously harvest pprof CPU/heap captures into this directory, tagged with the superstep in flight")
		verbose   = fs.Bool("verbose", false, "narrate supersteps as JSONL events on stderr")
		faultSeed = fs.Int64("fault-seed", 0, "inject a deterministic fault plan derived from this seed; the engine checkpoints and recovers (0 disables)")
		faultPlan = fs.String("fault-plan", "", "inject the fault plan from this JSON file (overrides -fault-seed; format: internal/fault)")
		ckptEvery = fs.Int("checkpoint-every", 2, "checkpoint cadence in supersteps while fault injection is on (0: the step-0 baseline only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fail fast on unusable output paths: a typo'd -comm/-record must abort
	// now, not after the run has burned its minutes.
	if *commCSV != "" {
		if err := obs.EnsureWritableFile(*commCSV); err != nil {
			return fmt.Errorf("-comm %s: %w", *commCSV, err)
		}
	}
	// Live observability (opt-in): -verbose narrates supersteps on stderr;
	// -debug-addr additionally serves /metrics, /trace, /comm and
	// /debug/pprof while the run advances; -comm and -skew collect the
	// traffic matrix and the imbalance profile without a server.
	sess, err := obs.Setup(obs.Options{
		Prog: "cyclops-run", Stderr: stderr,
		Verbose: *verbose, DebugAddr: *debugAddr, SlowPhase: *slowPhase,
		ProfileDir: *profDir, RecordDir: *record, Comm: *commCSV != "", Skew: *skewFlag,
		Meta: obs.RunMeta{
			Algorithm:         *algo,
			Dataset:           datasetLabel(*dsName, *graphFile),
			Partitioner:       *partName,
			Seed:              *seed,
			Scale:             *scale,
			Machines:          *machines,
			WorkersPerMachine: *workers,
		},
	})
	if err != nil {
		return err
	}
	defer sess.Close()

	g, ids, err := loadGraph(*dsName, *graphFile, *scale, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %s\n", graph.ComputeStats(g))
	src := graph.ID(*source)
	if ids != nil && *algo == "SSSP" {
		v := slices.Index(ids, int64(*source))
		if v < 0 {
			return fmt.Errorf("-source %d: %s has no vertex with that id", *source, *graphFile)
		}
		src = graph.ID(v)
	}

	cc := cluster.Config{
		Machines:          *machines,
		WorkersPerMachine: *workers,
		Threads:           *threads,
		Receivers:         *receivers,
	}
	part, err := pickPartitioner(*partName, *seed)
	if err != nil {
		return err
	}
	faults, cleanup, err := newFaultSpec(*faultPlan, *faultSeed, *ckptEvery, cc.Workers(), stderr)
	if err != nil {
		return err
	}
	defer cleanup()

	// The run itself is the harness's (engine, algorithm) row — the same
	// program, codec, Equal/Residual/Halt and accounting every experiment and
	// the perf gate use, so this CLI's records diff against theirs.
	r, err := harness.RunWorkload(*engine, *algo, g, cc, part, harness.Params{
		MaxSteps: *steps, Eps: *eps, Source: src,
		Hooks: sess.Hooks, Audit: *audit, Faults: faults,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, r.Trace)
	if r.Replication > 0 {
		fmt.Fprintf(stdout, "replication factor: %.2f\n", r.Replication)
	}
	if *algo == "CC" {
		components := map[float64]struct{}{}
		for _, label := range r.Values {
			components[label] = struct{}{}
		}
		fmt.Fprintf(stdout, "components: %d\n", len(components))
	}
	printTop(stdout, r.Values, *top, ids)
	if *skewFlag {
		for _, rep := range sess.Log.SkewReports() {
			if err := rep.WriteTable(stdout); err != nil {
				return err
			}
		}
	}
	if *commCSV != "" {
		if err := writeFile(*commCSV, sess.Log.WriteCommCSV); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote traffic matrix to", *commCSV)
	}
	if rec := sess.Recorder; rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
		for _, m := range rec.Manifests() {
			fmt.Fprintf(stdout, "recorded %s\n", m.Run)
		}
	}
	return nil
}

// datasetLabel names the input for the manifest: the synthetic dataset name
// or the base name of the edge-list file.
func datasetLabel(dsName, graphFile string) string {
	if dsName != "" {
		return dsName
	}
	return filepath.Base(graphFile)
}

// writeFile creates path, streams write into it, and reports close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadGraph also returns a relabelled text file's ids, by vertex.
func loadGraph(dsName, graphFile string, scale float64, seed int64) (*graph.Graph, []int64, error) {
	switch {
	case dsName != "" && graphFile != "":
		return nil, nil, fmt.Errorf("use -dataset or -graph, not both")
	case dsName != "":
		g, _, err := gen.Dataset(dsName, scale, seed)
		return g, nil, err
	case strings.HasSuffix(graphFile, ".bin"):
		g, err := graph.ReadBinaryFile(graphFile)
		return g, nil, err
	case graphFile != "":
		return graph.LoadFile(graphFile)
	default:
		return nil, nil, fmt.Errorf("one of -dataset or -graph is required")
	}
}

func pickPartitioner(name string, seed int64) (partition.Partitioner, error) {
	switch name {
	case "hash":
		return partition.Hash{}, nil
	case "metis":
		return partition.Multilevel{Seed: seed}, nil
	case "range":
		return partition.Range{}, nil
	default:
		return nil, fmt.Errorf("unknown partitioner %q", name)
	}
}

// printTop names vertices as the input does: ids is nil or the file's id of
// each vertex.
func printTop(w io.Writer, values []float64, n int, ids []int64) {
	type kv struct {
		v   int64
		val float64
	}
	order := make([]kv, len(values))
	for i, v := range values {
		order[i] = kv{int64(i), v}
		if ids != nil {
			order[i].v = ids[i]
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].val > order[j].val })
	if n > len(order) {
		n = len(order)
	}
	fmt.Fprintf(w, "top %d vertices:\n", n)
	for _, e := range order[:n] {
		fmt.Fprintf(w, "  vertex %-8d %g\n", e.v, e.val)
	}
}
