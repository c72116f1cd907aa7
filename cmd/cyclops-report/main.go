// Command cyclops-report inspects and diffs flight records produced by
// cyclops-run/cyclops-bench -record: one run-NNN-<engine>.rec file per run.
//
//	cyclops-report list <record-dir>
//	cyclops-report show [-critpath] [-mem] [-heat] <record-dir> <run-name>
//	cyclops-report diff [-model-tol 0.05] [-alloc-tol 0.25] <baseline> <current>
//
// show prints a run's whole record, or with -critpath its critical path
// reconciled against the phase timers, with -mem its memory telemetry, with
// -heat its heat map, hot set and straggler causes. A run name may carry the
// .rec extension. diff's sides are each either a record directory (every run
// record in it is normalized) or a baseline JSON file (BENCH_baseline.json).
// Deterministic counts — supersteps, messages, wire bytes, replicas, replica
// value bytes — must match exactly; model time and allocations per superstep
// get relative tolerance bands. The exit status is non-zero when any metric
// regresses, which is what the CI perf-gate keys off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/report"
)

func main() {
	if err := cliMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cyclops-report:", err)
		os.Exit(1)
	}
}

// cliMain is the whole CLI behind a testable seam: args in, output to the
// given writers, errors (including diff regressions) returned instead of
// exiting.
func cliMain(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "list":
		if len(args) != 2 {
			return usageError()
		}
		return list(args[1], stdout)
	case "show":
		fs := flag.NewFlagSet("cyclops-report show", flag.ContinueOnError)
		fs.SetOutput(stderr)
		critpath := fs.Bool("critpath", false, "print the per-superstep critical-path breakdown instead of the raw record")
		mem := fs.Bool("mem", false, "print the per-superstep memory telemetry and the run's allocation totals instead of the raw record")
		heat := fs.Bool("heat", false, "print the partition heat map, hot-vertex set and straggler root causes instead of the raw record")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return usageError()
		}
		rec, err := obs.ReadRecord(fs.Arg(0), fs.Arg(1))
		switch {
		case err != nil:
			return err
		case *critpath:
			return showCritPath(rec, stdout)
		case *mem:
			return showMem(rec, stdout)
		case *heat:
			return showHeat(rec, stdout)
		}
		fmt.Fprintf(stdout, "%s", rec.ManifestJSON)
		for s, body := range rec.Raw {
			fmt.Fprintf(stdout, "\n%s:\n%s", obs.Section(s), body)
		}
		return nil
	case "diff":
		fs := flag.NewFlagSet("cyclops-report diff", flag.ContinueOnError)
		fs.SetOutput(stderr)
		modelTol := fs.Float64("model-tol", 0.05, "relative tolerance for model_ms")
		allocTol := fs.Float64("alloc-tol", 0.25, "relative tolerance for allocs_per_superstep (quarantined telemetry)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return usageError()
		}
		return diff(fs.Arg(0), fs.Arg(1), *modelTol, *allocTol, stdout)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: cyclops-report list <dir> | show [-critpath] [-mem] [-heat] <dir> <run> | diff [-model-tol F] [-alloc-tol F] <baseline> <current>")
}

func list(dir string, w io.Writer) error {
	ms, err := obs.ReadManifests(dir)
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		fmt.Fprintf(w, "no runs recorded under %s\n", dir)
		return nil
	}
	fmt.Fprintf(w, "%-24s %-10s %-10s %6s %12s %10s %12s\n",
		"run", "experiment", "engine", "steps", "messages", "model-ms", "wall-ms")
	for _, m := range ms {
		exp := m.Experiment
		if exp == "" {
			exp = "-"
		}
		fmt.Fprintf(w, "%-24s %-10s %-10s %6d %12d %10.1f %12.1f\n",
			m.Run, exp, m.Engine, m.Supersteps, m.Messages,
			m.ModelNanos/1e6, float64(m.WallNanos)/1e6)
	}
	return nil
}

// showCritPath renders a run's critical-path attribution: one row per
// superstep naming the worker that gated the barrier and splitting its wall
// into compute / serialize / send / barrier-wait. The row sum equals the
// superstep's phase-wall total, so the footer reconciles the table against
// the phase timers (prs+cmp+snd+syn summed over the run) and errors on
// mismatch — the span stream and the phase timers must account for the same
// time.
func showCritPath(rec *obs.Record, w io.Writer) error {
	fmt.Fprintf(w, "%4s %6s %10s %12s %12s %12s %12s %12s\n",
		"step", "gating", "weight", "compute-ms", "serialize-ms", "send-ms", "barrier-ms", "wall-ms")
	var tot span.StepPath
	for _, p := range rec.CritPath {
		fmt.Fprintf(w, "%4d %6s %10d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
			p.Step, fmt.Sprintf("w%d", p.Gating), p.Weight,
			float64(p.ComputeNs)/1e6, float64(p.SerializeNs)/1e6,
			float64(p.SendNs)/1e6, float64(p.BarrierNs)/1e6, float64(p.Wall())/1e6)
		tot.Weight += p.Weight
		tot.ComputeNs += p.ComputeNs
		tot.SerializeNs += p.SerializeNs
		tot.SendNs += p.SendNs
		tot.BarrierNs += p.BarrierNs
	}
	fmt.Fprintf(w, "%4s %6s %10d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
		"sum", "", tot.Weight,
		float64(tot.ComputeNs)/1e6, float64(tot.SerializeNs)/1e6,
		float64(tot.SendNs)/1e6, float64(tot.BarrierNs)/1e6, float64(tot.Wall())/1e6)

	var timingsTotal int64
	for _, t := range rec.Timings {
		timingsTotal += t.PRS + t.CMP + t.SND + t.SYN
	}
	fmt.Fprintf(w, "phase-timer total: %.3f ms over %d superstep(s)\n",
		float64(timingsTotal)/1e6, len(rec.Timings))
	if len(rec.CritPath) != len(rec.Timings) {
		return fmt.Errorf("the critical path has %d rows but the phase timers %d", len(rec.CritPath), len(rec.Timings))
	}
	if tot.Wall() != timingsTotal {
		return fmt.Errorf("critical-path wall %dns does not reconcile with the phase-timer total %dns",
			tot.Wall(), timingsTotal)
	}
	fmt.Fprintln(w, "reconciliation: OK (critical-path columns sum to the phase-timer totals)")
	return nil
}

// showMem renders a run's memory telemetry: the quarantined per-superstep
// rows, then the manifest's exact run totals. Every number here is
// machine-dependent — the table is for reading trends, never for exact
// comparison.
func showMem(rec *obs.Record, w io.Writer) error {
	m := rec.Manifest
	fmt.Fprintf(w, "%4s %12s %4s %10s %12s %12s\n",
		"step", "alloc-bytes", "gcs", "pause-us", "heap-goal", "heap-live")
	for _, s := range rec.Mem {
		fmt.Fprintf(w, "%4d %12d %4d %10.1f %12d %12d\n",
			s.Step, s.AllocBytes, s.GCCycles, float64(s.GCPauseNs)/1e3, s.HeapGoal, s.HeapLive)
	}
	fmt.Fprintf(w, "run: %d allocs, %d bytes, %d GC cycle(s), %.1f us GC pause over %d superstep(s)",
		m.Allocs, m.AllocBytes, m.GCCycles, float64(m.GCPauseNs)/1e3, m.Supersteps)
	if m.Supersteps > 0 {
		fmt.Fprintf(w, "; mean %.2f allocs/superstep", float64(m.Allocs)/float64(m.Supersteps))
	}
	fmt.Fprintln(w, "\nnote: per-superstep rows are quarantined telemetry (the runtime books bytes when a span is refilled); the run totals are exact counts, observers included")
	return nil
}

// showHeat renders a run's heat observatory: the per-(superstep, worker)
// heat map, the final top-k hot-vertex set, and a straggler root-cause table
// joining each superstep's critical-path gating worker against its heat row.
// The cause names which load dimension put that worker on the critical path:
// compute volume, boundary messages, or replica-sync traffic.
func showHeat(rec *obs.Record, w io.Writer) error {
	gating := make(map[int]int) // step → gating worker
	for _, p := range rec.CritPath {
		gating[p.Step] = p.Gating
	}

	byStep := make(map[int][]obs.HeatPartition)
	var steps []int
	for _, r := range rec.Heat {
		if _, seen := byStep[r.Step]; !seen {
			steps = append(steps, r.Step)
		}
		byStep[r.Step] = append(byStep[r.Step], r)
	}

	fmt.Fprintf(w, "partition heat map: %s (* = gating worker)\n", rec.Manifest.Run)
	fmt.Fprintf(w, "%4s %7s %8s %10s %9s %9s %8s %8s %9s\n",
		"step", "worker", "active", "units", "out-int", "out-bnd", "in-bnd", "sync", "")
	for _, s := range steps {
		for _, r := range byStep[s] {
			mark := ""
			if gw, ok := gating[s]; ok && gw == r.Worker {
				mark = "*"
			}
			fmt.Fprintf(w, "%4d %7s %8d %10d %9d %9d %8d %8d %9s\n",
				r.Step, fmt.Sprintf("w%d", r.Worker), r.Active, r.ComputeUnits,
				r.OutInterior, r.OutBoundary, r.InBoundary, r.ReplicaSync, mark)
		}
	}

	if len(rec.Hot) > 0 {
		fmt.Fprintf(w, "\nhot vertices (cumulative, msgs desc):\n")
		fmt.Fprintf(w, "%4s %10s %7s %10s %10s\n", "rank", "vertex", "worker", "msgs", "units")
		for i, h := range rec.Hot {
			fmt.Fprintf(w, "%4d %10d %7s %10d %10d\n", i+1, h.Vertex, fmt.Sprintf("w%d", h.Worker), h.Msgs, h.Units)
		}
	}

	fmt.Fprintf(w, "\nstraggler root causes (gating worker's load vs the step mean):\n")
	fmt.Fprintf(w, "%4s %7s %-24s %12s %12s %12s\n",
		"step", "gating", "cause", "units/mean", "bnd/mean", "sync/mean")
	for _, s := range steps {
		gw, ok := gating[s]
		if !ok {
			continue
		}
		var row *obs.HeatPartition
		var meanUnits, meanBnd, meanSync float64
		for i := range byStep[s] {
			r := &byStep[s][i]
			meanUnits += float64(r.ComputeUnits)
			meanBnd += float64(r.OutBoundary + r.InBoundary)
			meanSync += float64(r.ReplicaSync)
			if r.Worker == gw {
				row = r
			}
		}
		n := float64(len(byStep[s]))
		meanUnits, meanBnd, meanSync = meanUnits/n, meanBnd/n, meanSync/n
		if row == nil {
			fmt.Fprintf(w, "%4d %7s %-24s %12s %12s %12s\n",
				s, fmt.Sprintf("w%d", gw), "unknown (no heat row)", "-", "-", "-")
			continue
		}
		cause := rootCause(*row, meanUnits, meanBnd, meanSync)
		fmt.Fprintf(w, "%4d %7s %-24s %12s %12s %12s\n",
			s, fmt.Sprintf("w%d", gw), cause,
			fratio(float64(row.ComputeUnits), meanUnits),
			fratio(float64(row.OutBoundary+row.InBoundary), meanBnd),
			fratio(float64(row.ReplicaSync), meanSync))
	}
	return nil
}

// rootCause classifies why a gating worker was slowest from its heat row: the
// load dimension furthest above the step mean wins; a worker near the mean on
// every dimension is "balanced", qualified by its dominant absolute volume; a
// worker with no load at all is "idle" (it gated on coordination, not load).
func rootCause(row obs.HeatPartition, meanUnits, meanBnd, meanSync float64) string {
	units := float64(row.ComputeUnits)
	bnd := float64(row.OutBoundary + row.InBoundary)
	sync := float64(row.ReplicaSync)
	if units == 0 && bnd == 0 && sync == 0 {
		return "idle"
	}
	best, bestRatio := "", 0.0
	for _, d := range []struct {
		name    string
		v, mean float64
	}{
		{"compute-heavy", units, meanUnits},
		{"boundary-message-heavy", bnd, meanBnd},
		{"replica-sync-heavy", sync, meanSync},
	} {
		if d.mean <= 0 {
			continue
		}
		if r := d.v / d.mean; r > bestRatio {
			bestRatio, best = r, d.name
		}
	}
	if best != "" && bestRatio > 1.05 {
		return best
	}
	// Near the mean everywhere: the straggle isn't skew. Name the dominant
	// volume so the row still says what the worker spent the step on.
	switch {
	case units >= bnd && units >= sync:
		return "balanced (compute-bound)"
	case bnd >= sync:
		return "balanced (message-bound)"
	default:
		return "balanced (sync-bound)"
	}
}

// fratio renders a load/mean ratio cell; "-" when the step mean is zero.
func fratio(v, mean float64) string {
	if mean <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v/mean)
}

func diff(oldPath, newPath string, modelTol, allocTol float64, w io.Writer) error {
	base, err := report.Load(oldPath)
	if err != nil {
		return err
	}
	cur, err := report.Load(newPath)
	if err != nil {
		return err
	}
	res := report.Diff(base, cur, report.Options{ModelTol: modelTol, AllocTol: allocTol})
	if err := res.WriteMarkdown(w); err != nil {
		return err
	}
	return res.Err()
}
