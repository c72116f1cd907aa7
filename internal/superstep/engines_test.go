package superstep_test

// The engines through the kernel: every engine, on a clean run, with its
// auditor on, and through a seeded fault plan with recovery, must speak the
// same begin/end hook grammar — differing only in the phase order each engine
// reports (DESIGN.md §4.1).

import (
	"fmt"
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
	"cyclops/internal/transport"
)

// grammarHooks checks nesting as events arrive and counts them for the
// per-run totals. Hooks are only called from the coordinator, so no locking.
type grammarHooks struct {
	t      *testing.T
	phases []metrics.Phase // the engine's OnPhase order within a superstep

	inRun, inStep, heatSeen bool
	phaseAt                 int
	runStarts, converged    int
	steps, workerStats      int
	commSteps, violations   int
	recoveries              int
	spanStarts, spanEnds    int
	open                    map[int64]int // span id → announced-open count
	reason                  string
}

func (g *grammarHooks) errorf(format string, args ...any) {
	g.t.Helper()
	g.t.Errorf(format, args...)
}

func (g *grammarHooks) OnRunStart(obs.RunInfo) {
	if g.inRun {
		g.errorf("OnRunStart inside a run")
	}
	g.inRun = true
	g.runStarts++
}

func (g *grammarHooks) OnSuperstepStart(step int) {
	if !g.inRun || g.inStep {
		g.errorf("OnSuperstepStart(%d): inRun=%v inStep=%v", step, g.inRun, g.inStep)
	}
	g.inStep, g.heatSeen, g.phaseAt = true, false, 0
}

func (g *grammarHooks) OnPhase(step int, p metrics.Phase, _ time.Duration) {
	if !g.inStep || g.phaseAt >= len(g.phases) || g.phases[g.phaseAt] != p {
		g.errorf("OnPhase(%d, %s) at position %d, want order %v", step, p, g.phaseAt, g.phases)
	}
	g.phaseAt++
}

func (g *grammarHooks) OnWorkerStats(ws obs.WorkerStats) {
	if !g.inStep || g.phaseAt != len(g.phases) {
		g.errorf("OnWorkerStats(%d) before the superstep's phases finished", ws.Step)
	}
	g.workerStats++
}

func (g *grammarHooks) OnCommMatrix(step int, _ transport.MatrixSnapshot) {
	if !g.inStep {
		g.errorf("OnCommMatrix(%d) outside a superstep", step)
	}
	g.commSteps++
}

func (g *grammarHooks) OnViolation(obs.Violation) { g.violations++ }

func (g *grammarHooks) OnHeat(d obs.HeatStepData) {
	if !g.inStep || g.heatSeen {
		g.errorf("OnHeat(%d): inStep=%v heatSeen=%v", d.Step, g.inStep, g.heatSeen)
	}
	g.heatSeen = true
}

func (g *grammarHooks) OnSuperstepEnd(step int, _ metrics.StepStats) {
	if !g.inStep || !g.heatSeen {
		g.errorf("OnSuperstepEnd(%d): inStep=%v heatSeen=%v", step, g.inStep, g.heatSeen)
	}
	g.inStep = false
	g.steps++
}

func (g *grammarHooks) OnRecovery(e obs.RecoveryEvent) {
	if g.inStep || e.ResumedAt > e.Step || e.Attempt != g.recoveries+1 {
		g.errorf("OnRecovery %+v: inStep=%v after %d recoveries", e, g.inStep, g.recoveries)
	}
	g.recoveries++
}

func (g *grammarHooks) OnSpanStart(s span.Span) {
	if g.open == nil {
		g.open = map[int64]int{}
	}
	g.open[s.ID]++
	g.spanStarts++
}

func (g *grammarHooks) OnSpanEnd(s span.Span) {
	if g.open[s.ID] > 0 {
		g.open[s.ID]--
	}
	g.spanEnds++
}

func (g *grammarHooks) OnConverged(_ int, reason string) {
	if !g.inRun || g.inStep {
		g.errorf("OnConverged: inRun=%v inStep=%v", g.inRun, g.inStep)
	}
	g.inRun = false
	g.converged++
	g.reason = reason
}

// scenario is one column of the table: how the run is perturbed.
type scenario struct {
	name  string
	audit bool
	plan  *fault.Plan
}

// memCheckpoints is an in-memory checkpoint directory: the latest snapshot.
type memCheckpoints[S any] struct{ latest S }

func (m *memCheckpoints[S]) save(s S) error   { m.latest = s; return nil }
func (m *memCheckpoints[S]) load() (S, error) { return m.latest, nil }

const tableSteps = 12

// Each engine runner builds the engine for the scenario (checkpoints every 2
// supersteps plus a step-0 baseline when a plan is injected) and runs it.

func runHama(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := bsp.Config[float64, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit}
	var store memCheckpoints[bsp.State[float64, float64]]
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointEvery = sc.plan, 2
		cfg.Checkpoints, cfg.Recover = store.save, store.load
	}
	e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{Eps: 1e-4}, cfg)
	if err != nil {
		return err
	}
	store.latest = e.Snapshot()
	_, err = e.Run()
	return err
}

func runCyclops(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := cyclops.Config[float64, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit}
	var store memCheckpoints[cyclops.State[float64, float64]]
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointEvery = sc.plan, 2
		cfg.Checkpoints, cfg.Recover = store.save, store.load
	}
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-4}, cfg)
	if err != nil {
		return err
	}
	store.latest = e.Snapshot()
	_, err = e.Run()
	return err
}

func runPowerGraph(g *graph.Graph, cc cluster.Config, sc scenario, h obs.Hooks) error {
	cfg := gas.Config[algorithms.PRValue, float64]{Cluster: cc, MaxSupersteps: tableSteps, Hooks: h, Audit: sc.audit}
	var store memCheckpoints[gas.State[algorithms.PRValue]]
	if sc.plan != nil {
		cfg.FaultPlan, cfg.CheckpointEvery = sc.plan, 2
		cfg.Checkpoints, cfg.Recover = store.save, store.load
	}
	e, err := gas.New[algorithms.PRValue, float64](g, algorithms.NewPageRankGAS(g, tableSteps, 1e-4), cfg)
	if err != nil {
		return err
	}
	store.latest = e.Snapshot()
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
	seededPlan := func(t *testing.T, workers int) *fault.Plan {
		plan := fault.NewPlan(7, workers, 1, 6, 3)
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
					sc.plan = seededPlan(t, eng.cc.Workers())
				}
				h := &grammarHooks{t: t, phases: eng.phases}
				if err := eng.run(g, eng.cc, sc, h); err != nil {
					t.Fatal(err)
				}
				workers := eng.cc.Workers()
				if h.runStarts != 1 || h.converged != 1 || h.inRun {
					t.Fatalf("run bracket: %d starts, %d converged", h.runStarts, h.converged)
				}
				if h.steps == 0 || h.commSteps != h.steps || h.workerStats != workers*h.steps {
					t.Fatalf("%d supersteps, %d comm matrices, %d worker stats (%d workers)",
						h.steps, h.commSteps, h.workerStats, workers)
				}
				if h.violations != 0 {
					t.Fatalf("%d violations on a consistent run", h.violations)
				}
				if (sc.plan != nil) != (h.recoveries > 0) {
					t.Fatalf("%d recoveries with plan=%v", h.recoveries, sc.plan != nil)
				}
				switch h.reason {
				case obs.ReasonHalt, obs.ReasonNoActive, obs.ReasonMaxSupersteps:
				default:
					t.Fatalf("termination reason %q", h.reason)
				}
				// One run span plus one per announced superstep; per superstep
				// and worker at least Compute, Serialize, Send and BarrierWait,
				// plus the superstep span itself; everything announced open
				// is closed by the time Run returns.
				if h.spanStarts != h.steps+1 {
					t.Fatalf("span starts: %d, want %d", h.spanStarts, h.steps+1)
				}
				if min := h.steps*(workers*4+1) + 1; h.spanEnds < min {
					t.Fatalf("span ends: %d, want at least %d", h.spanEnds, min)
				}
				for id, n := range h.open {
					if n != 0 {
						t.Fatalf("span %#x still open %d× after the run returned", id, n)
					}
				}
			})
		}
	}
}
