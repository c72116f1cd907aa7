package harness

import (
	"fmt"
	"io"
	"math"
	"os"

	"cyclops/internal/cluster"
	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

// Faults is the §3.6 fault-tolerance experiment: each engine runs PageRank on
// amazon twice — a fault-free baseline and the same run under a deterministic
// fault plan with periodic checkpoints and recovery — and the final vertex
// values must match the baseline exactly. The table reports the recovery
// cost: replayed supersteps and the extra messages the replays sent, which is
// the price §3.6 argues is small because Cyclops checkpoints exclude replicas
// and messages.
//
// The plan comes from Options.FaultPlan when set (e.g. replaying a CI chaos
// failure from its uploaded plan) and is otherwise derived from Options.Seed;
// the same seed always yields the same schedule.
func Faults(o Options, w io.Writer) error {
	o = o.normalize()
	g, meta, err := dataset(o, "amazon")
	if err != nil {
		return err
	}
	cc := o.flat()

	plan := o.FaultPlan
	if plan == nil {
		p := fault.NewPlan(o.Seed, cc.Workers(), 2, 8, 3)
		plan = &p
	}
	fmt.Fprintf(w, "dataset %s: %d vertices, %d edges; %d workers\n",
		meta.Name, g.NumVertices(), g.NumEdges(), cc.Workers())
	fmt.Fprintf(w, "fault plan (seed %d):\n", plan.Seed)
	for _, f := range plan.Faults {
		fmt.Fprintf(w, "  %s\n", f)
	}

	tb := newTable("engine", "steps", "steps+replay", "recoveries", "replayed",
		"msgs", "msgs faulted", "extra msgs", "values")
	for _, engine := range []string{"hama", "cyclops", "powergraph"} {
		out, err := runFaulted(engine, g, cc, o, *plan)
		if err != nil {
			return fmt.Errorf("faults: %s: %w", engine, err)
		}
		equal := "EQUAL"
		if !out.equal {
			equal = "DIVERGED"
		}
		tb.addf("%s|%d|%d|%d|%d|%d|%d|%d|%s",
			engine, out.baseSteps, out.faultSteps, out.recoveries, out.replayed,
			out.baseMsgs, out.faultMsgs, out.faultMsgs-out.baseMsgs, equal)
		if !out.equal {
			return fmt.Errorf("faults: %s: recovered values diverged from the fault-free run", engine)
		}
	}
	tb.write(w)
	fmt.Fprintln(w, "\nextra msgs = replayed supersteps' traffic; checkpoints hold only master")
	fmt.Fprintln(w, "state (replicas/mirrors are rebuilt from masters on recovery, §3.6)")
	return nil
}

// faultOutcome compares a faulted run against its fault-free baseline.
type faultOutcome struct {
	baseSteps, faultSteps int
	baseMsgs, faultMsgs   int64
	recoveries, replayed  int
	equal                 bool
}

// recoveryStats counts the recoveries the run's records carry, next to
// whatever observers the caller installed.
type recoveryStats struct {
	obs.Nop
	recoveries, replayed int
}

func (r *recoveryStats) OnSuperstep(rec *obs.StepRecord) {
	if e := rec.Recovery; e != nil {
		r.recoveries++
		r.replayed += e.Replayed()
	}
}

// runFaulted runs one engine's PageRank row clean and under the plan and
// compares their final values exactly: recovery restores a barrier
// checkpoint and replays deterministic supersteps, so even floating-point
// results must match to the last bit.
func runFaulted(engine string, g *graph.Graph, cc cluster.Config, o Options,
	plan fault.Plan) (faultOutcome, error) {

	dir, err := os.MkdirTemp("", "cyclops-faults-*")
	if err != nil {
		return faultOutcome{}, err
	}
	defer os.RemoveAll(dir)

	p := defaultParams(o)
	base, err := RunWorkload(engine, "PR", g, cc, partition.Hash{}, p)
	if err != nil {
		return faultOutcome{}, err
	}
	rec := &recoveryStats{}
	p.Hooks = obs.Multi(o.Hooks, rec)
	p.Faults = &FaultSpec{Plan: plan, Every: 2, Dir: dir}
	faulted, err := RunWorkload(engine, "PR", g, cc, partition.Hash{}, p)
	if err != nil {
		return faultOutcome{}, err
	}
	return faultOutcome{
		baseSteps: base.Supersteps, faultSteps: faulted.Supersteps,
		baseMsgs: base.Messages, faultMsgs: faulted.Messages,
		recoveries: rec.recoveries, replayed: rec.replayed,
		equal: floatsEqual(base.Values, faulted.Values),
	}, nil
}

// floatsEqual is exact (bitwise) equality: recovery replays deterministic
// supersteps from an exact barrier snapshot, so approximate agreement would
// hide a broken restore path.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
