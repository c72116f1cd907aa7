// Command cyclops-bench regenerates the paper's evaluation artifacts
// (Figures 3, 9–13 and Tables 2–4 of the HPDC'14 Cyclops paper). Each
// experiment prints the same rows or series the paper reports, computed on
// scaled synthetic substitutions of the paper's datasets.
//
// Usage:
//
//	cyclops-bench -list
//	cyclops-bench -exp fig9.1 -scale 0.5
//	cyclops-bench -exp all
//	cyclops-bench -exp fig10.1 -verbose               # narrate supersteps (JSONL on stderr)
//	cyclops-bench -exp fig9.2 -debug-addr :6060       # live /metrics, /trace, /debug/pprof
//	cyclops-bench -exp fig10.2 -record rec            # flight record of every run
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"cyclops/internal/fault"
	"cyclops/internal/harness"
	"cyclops/internal/obs"
	"cyclops/internal/report"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = default laptop size)")
		seed      = flag.Int64("seed", 1, "random seed for synthetic datasets")
		mach      = flag.Int("machines", 6, "simulated machines (paper: 6)")
		workers   = flag.Int("workers", 8, "workers per machine (paper: 8)")
		eps       = flag.Float64("eps", 1e-9, "PageRank convergence bound")
		commCSV   = flag.String("comm", "", "write the last engine run's per-superstep worker×worker traffic matrix to this CSV file")
		record    = flag.String("record", "", "record every engine run as one flight-record file (run-NNN-<engine>.rec) under this directory, plus a normalized BENCH_baseline.json")
		skew      = flag.Bool("skew", false, "print each run's load-imbalance profile after the experiments")
		audit     = flag.Bool("audit", false, "verify engine invariants each superstep; a violation fails the experiment")
		debugAddr = flag.String("debug-addr", "", "serve live diagnostics (/metrics, /trace, /comm, /mem, /heat, /spans, /runs, /profiles, /debug/pprof) on this address")
		slowPhase = flag.Float64("slow-phase", 3, "warn when a phase runs slower than this factor times its trailing mean (<=1 disables the detector)")
		profDir   = flag.String("profile-dir", "", "continuously harvest pprof CPU/heap captures into this directory, tagged with the superstep in flight")
		verbose   = flag.Bool("verbose", false, "narrate each experiment's supersteps as JSONL events on stderr")
		faultSeed = flag.Int64("fault-seed", 0, "derive the faults experiment's fault plan from this seed instead of -seed (0 = use -seed)")
		faultPlan = flag.String("fault-plan", "", "load the faults experiment's fault plan from this JSON file (overrides -fault-seed; format: internal/fault)")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-8s  %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	// Fail fast on unusable output paths: a typo'd -comm/-record must abort
	// before the experiments run, not after.
	if *commCSV != "" {
		if err := obs.EnsureWritableFile(*commCSV); err != nil {
			fatal(fmt.Errorf("-comm %s: %w", *commCSV, err))
		}
	}
	o := harness.Options{
		Scale:             *scale,
		Seed:              *seed,
		Machines:          *mach,
		WorkersPerMachine: *workers,
		Eps:               *eps,
		Audit:             *audit,
	}
	if *faultPlan != "" {
		p, err := fault.Load(*faultPlan)
		if err != nil {
			fatal(fmt.Errorf("-fault-plan %s: %w", *faultPlan, err))
		}
		o.FaultPlan = &p
	} else if *faultSeed != 0 {
		p := fault.NewPlan(*faultSeed, (*mach)*(*workers), 2, 8, 3)
		o.FaultPlan = &p
	}

	// Live observability: one run log narrates supersteps under -verbose and
	// backs the traffic matrix, the skew profiles, the flight record and the
	// live endpoints. With no flags set, Hooks stays nil and engines keep
	// their fast path.
	sess, err := obs.Setup(obs.Options{
		Prog: "cyclops-bench", Stderr: os.Stderr,
		Verbose: *verbose, DebugAddr: *debugAddr, SlowPhase: *slowPhase,
		ProfileDir: *profDir, RecordDir: *record, Comm: *commCSV != "", Skew: *skew,
		Meta: obs.RunMeta{Seed: *seed, Scale: *scale, Machines: *mach, WorkersPerMachine: *workers},
	})
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	o.Hooks = sess.Hooks
	rec := sess.Recorder
	// -verbose brackets each experiment's runs in the narration.
	narrate := func(string, ...any) {}
	if *verbose {
		narrate = slog.New(slog.NewJSONHandler(os.Stderr, nil)).Info
	}

	runOne := func(e harness.Experiment) error {
		if rec != nil {
			// Stamp the experiment id into the manifests of the runs it spawns
			// so cyclops-report can match them against a baseline.
			rec.SetExperiment(e.ID)
		}
		narrate("experiment-start", "span", "experiment", "id", e.ID, "title", e.Title)
		err := e.Run(o, os.Stdout)
		narrate("experiment-end", "span", "experiment", "id", e.ID, "err", err != nil)
		return err
	}
	run := func() error {
		if *exp == "all" {
			for _, e := range harness.Experiments() {
				fmt.Printf("\n================ %s — %s ================\n", e.ID, e.Title)
				if err := runOne(e); err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
			}
			return nil
		}
		e, ok := harness.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "cyclops-bench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		fmt.Printf("%s — %s\n\n", e.ID, e.Title)
		return runOne(e)
	}
	if err := run(); err != nil {
		fatal(err)
	}

	if rec != nil {
		if err := rec.Err(); err != nil {
			fatal(err)
		}
		ms := rec.Manifests()
		baseline := filepath.Join(*record, "BENCH_baseline.json")
		b, err := report.FromRecords(*record, ms)
		if err != nil {
			fatal(err)
		}
		if err := report.Write(baseline, b); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d runs under %s, baseline at %s\n", len(ms), *record, baseline)
	}

	if *skew {
		fmt.Println("\nskew profiles (imbalance = max/mean across workers, peak over supersteps):")
		for _, rep := range sess.Log.SkewReports() {
			fmt.Println(" ", rep)
		}
	}
	if *commCSV != "" {
		f, err := os.Create(*commCSV)
		if err != nil {
			fatal(err)
		}
		if err := sess.Log.WriteCommCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote traffic matrix to %s\n", *commCSV)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cyclops-bench:", err)
	os.Exit(1)
}
