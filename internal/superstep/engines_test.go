package superstep_test

// The engines through the kernel: every engine, on a clean run, with its
// auditor on, and through a seeded fault plan with recovery, must speak the
// same four-event hook grammar — differing only in the phase order each
// engine's records show (DESIGN.md §4.1).

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
)

// grammarHooks checks the four-event grammar as events arrive and counts them
// for the per-run totals. Hooks are only called from the coordinator, so no
// locking.
type grammarHooks struct {
	t       *testing.T
	workers int
	phases  []metrics.Phase // the engine's phase order within a superstep

	inRun, inStep      bool
	runStarts, runEnds int
	steps, violations  int
	recoveries, spans  int
	end                obs.RunEnd
	scratch            []span.Span
}

func (g *grammarHooks) errorf(format string, args ...any) {
	g.t.Helper()
	g.t.Errorf(format, args...)
}

func (g *grammarHooks) OnRunStart(info obs.RunInfo) {
	if g.inRun || info.Run != 1 || info.Workers != g.workers {
		g.errorf("OnRunStart(%+v): inRun=%v", info, g.inRun)
	}
	g.inRun = true
	g.runStarts++
}

func (g *grammarHooks) OnSuperstepStart(step int) {
	if !g.inRun || g.inStep {
		g.errorf("OnSuperstepStart(%d): inRun=%v inStep=%v", step, g.inRun, g.inStep)
	}
	g.inStep = true
}

// ranPhases is the phases rec's superstep ran — those with a non-zero
// duration — in the order of their start offsets, SYN last.
func ranPhases(rec *obs.StepRecord) []metrics.Phase {
	sd := &rec.Spans
	start := [metrics.Sync]time.Duration{sd.ParseStart, sd.ComputeStart, sd.SendStart}
	var ran []metrics.Phase
	for _, p := range []metrics.Phase{metrics.Parse, metrics.Compute, metrics.Send} {
		if rec.Stats.Durations[p] != 0 {
			ran = append(ran, p)
		}
	}
	slices.SortStableFunc(ran, func(a, b metrics.Phase) int { return cmp.Compare(start[a], start[b]) })
	if rec.Stats.Durations[metrics.Sync] != 0 {
		ran = append(ran, metrics.Sync)
	}
	return ran
}

func (g *grammarHooks) OnSuperstep(rec *obs.StepRecord) {
	if ran := ranPhases(rec); !g.inStep || !slices.Equal(ran, g.phases) {
		g.errorf("OnSuperstep(%d): inStep=%v, phases %v, want %v", rec.Step, g.inStep, ran, g.phases)
	}
	for _, row := range [][]int64{rec.Units, rec.Active, rec.Sent, rec.Recv, rec.Sync} {
		if len(row) != g.workers {
			g.errorf("OnSuperstep(%d): a per-worker row has %d entries, want %d", rec.Step, len(row), g.workers)
		}
	}
	if rec.Comm.Workers != g.workers || rec.Stats.Step != rec.Step || rec.Spans.Step != rec.Step {
		g.errorf("OnSuperstep(%d): comm %d×%d, stats step %d, span step %d",
			rec.Step, rec.Comm.Workers, rec.Comm.Workers, rec.Stats.Step, rec.Spans.Step)
	}
	// The views: per superstep and worker Compute, Serialize, Send and
	// BarrierWait, and Parse when the engine has one, closed by the superstep
	// span itself; one heat row per worker; a hot set within bounds.
	g.scratch = obs.AppendStepSpans(g.scratch[:0], rec.Spans)
	if n := len(g.scratch); (n != g.workers*4+1 && n != g.workers*5+1) || g.scratch[n-1].Kind != span.Superstep {
		g.errorf("OnSuperstep(%d): %d spans, want %d or %d ending in the superstep span",
			rec.Step, n, g.workers*4+1, g.workers*5+1)
	}
	if rows := rec.AppendHeat(nil); len(rows) != g.workers {
		g.errorf("OnSuperstep(%d): %d heat rows", rec.Step, len(rows))
	}
	if hot := rec.Hot(); len(hot) > obs.DefaultHotK {
		g.errorf("OnSuperstep(%d): hot set of %d", rec.Step, len(hot))
	}
	if e := rec.Recovery; e != nil {
		if e.Step != rec.Step || e.ResumedAt > e.Step || e.Attempt != g.recoveries+1 || e.Cause == "" {
			g.errorf("OnSuperstep(%d): recovery %+v after %d recoveries", rec.Step, *e, g.recoveries)
		}
		g.recoveries++
	}
	g.spans += len(g.scratch)
	g.violations += len(rec.Violations)
	g.inStep = false
	g.steps++
}

func (g *grammarHooks) OnRunEnd(e obs.RunEnd) {
	if !g.inRun || g.inStep {
		g.errorf("OnRunEnd: inRun=%v inStep=%v", g.inRun, g.inStep)
	}
	g.inRun = false
	g.runEnds++
	g.end = e
}

// scenario is one column of the table: how the run is perturbed. A plan
// comes with a checkpoint directory.
type scenario struct {
	name  string
	audit bool
	plan  *fault.Plan
	dir   string
}

const tableSteps = 12

// Each engine runner builds the engine for the scenario (checkpoints every 2
// supersteps into the scenario's directory when a plan is injected) and runs
// it.

func runHama(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := bsp.Config[float64, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit}
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = sc.plan, sc.dir, 2
	}
	e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: 1e-4}, cfg)
	if err != nil {
		return err
	}
	_, err = e.Run()
	return err
}

func runCyclops(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := cyclops.Config[float64, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit}
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = sc.plan, sc.dir, 2
	}
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-4}, cfg)
	if err != nil {
		return err
	}
	_, err = e.Run()
	return err
}

func runPowerGraph(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := gas.Config[algorithms.PRValue, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit,
		ValCodec: algorithms.PRValueCodec{}}
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointDir, cfg.CheckpointEvery = sc.plan, sc.dir, 2
	}
	e, err := gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, tableSteps, 1e-4), cfg)
	if err != nil {
		return err
	}
	_, err = e.Run()
	return err
}

func TestHookSequenceOnRealRuns(t *testing.T) {
	g, _, err := gen.Dataset("wiki", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	flat, mt := cluster.Flat(2, 2), cluster.MT(2, 2, 2)
	engines := []struct {
		name   string
		cc     cluster.Config
		phases []metrics.Phase
		run    func(*graph.Graph, cluster.Config, scenario, obs.Hooks) error
	}{
		{"hama", flat, []metrics.Phase{metrics.Parse, metrics.Compute, metrics.Send, metrics.Sync}, runHama},
		{"cyclops", flat, []metrics.Phase{metrics.Compute, metrics.Send, metrics.Parse, metrics.Sync}, runCyclops},
		{"cyclopsmt", mt, []metrics.Phase{metrics.Compute, metrics.Send, metrics.Parse, metrics.Sync}, runCyclops},
		{"powergraph", flat, []metrics.Phase{metrics.Compute, metrics.Sync}, runPowerGraph},
	}
	// A seeded plan: three faults over supersteps 1..6, at least one of which
	// surfaces as a transient transport error (a Slow fault alone would not).
	// CHAOS_SEED, when set (CI's chaos matrix), picks the seed; else 7.
	seed := int64(7)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if seed, err = strconv.ParseInt(s, 10, 64); err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
	}
	seededPlan := func(t *testing.T, workers int) *fault.Plan {
		plan := fault.NewPlan(seed, workers, 1, 6, 3)
		for _, f := range plan.Faults {
			if f.Kind != fault.Slow {
				return &plan
			}
		}
		t.Fatalf("seeded plan has no error-raising fault:\n%s", plan.Encode())
		return nil
	}
	for _, eng := range engines {
		for _, sc := range []scenario{{name: "clean"}, {name: "audit", audit: true}, {name: "faults"}} {
			t.Run(fmt.Sprintf("%s/%s", eng.name, sc.name), func(t *testing.T) {
				if sc.name == "faults" {
					sc.plan, sc.dir = seededPlan(t, eng.cc.Workers()), t.TempDir()
				}
				workers := eng.cc.Workers()
				h := &grammarHooks{t: t, workers: workers, phases: eng.phases}
				if err := eng.run(g, eng.cc, sc, h); err != nil {
					t.Fatal(err)
				}
				if h.runStarts != 1 || h.runEnds != 1 || h.inRun {
					t.Fatalf("run bracket: %d starts, %d ends", h.runStarts, h.runEnds)
				}
				if h.steps == 0 || h.spans < h.steps*(workers*4+1) {
					t.Fatalf("%d supersteps, %d spans (%d workers)", h.steps, h.spans, workers)
				}
				if h.violations != 0 {
					t.Fatalf("%d violations on a consistent run", h.violations)
				}
				if (sc.plan != nil) != (h.recoveries > 0) {
					t.Fatalf("%d recoveries with plan=%v", h.recoveries, sc.plan != nil)
				}
				switch h.end.Reason {
				case obs.ReasonHalt, obs.ReasonNoActive, obs.ReasonMaxSupersteps:
				default:
					t.Fatalf("termination reason %q", h.end.Reason)
				}
				// The run-end event closes the run span over the accounted wall
				// and brings the final hot set.
				if h.end.Wall <= 0 || len(h.end.Hot) == 0 || len(h.end.Hot) > obs.DefaultHotK {
					t.Fatalf("run end %+v", h.end)
				}
			})
		}
	}
}
