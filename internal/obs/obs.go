// Package obs is the live observability layer: engine-agnostic
// instrumentation hooks, one run log (Log) that every CSV, endpoint and the
// -verbose JSONL narration (with its slow-phase warnings) renders from, and an
// HTTP diagnostics server exposing /metrics (Prometheus text), /trace, /comm,
// /mem, /heat, /spans, /runs and /debug/pprof.
//
// The paper's evaluation (Figures 9–13) is entirely observational — phase
// breakdowns, message counts, active-vertex curves — but internal/metrics
// only materialises those numbers after a run finishes. This package makes
// the same quantities visible *while* a run executes: every engine accepts
// an obs.Hooks in its Config, and when the field is nil the hot path pays a
// single nil-check per phase (benchmarked in internal/cyclops).
package obs

import (
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/transport"
)

// RunInfo describes a run as it starts.
type RunInfo struct {
	// Run numbers the engine's observed runs from 1 — the Run id of every span
	// of this run, so a restored engine's second Run stays distinct.
	Run int64
	// Engine is the engine's trace name ("hama", "cyclops", "cyclopsmt",
	// "powergraph").
	Engine string
	// Workers is the number of simulated workers (= graph partitions).
	Workers int
	// Vertices and Edges describe the input graph.
	Vertices int
	Edges    int
	// Replicas is the replica (Cyclops) or mirror (GAS) count; zero for
	// engines without a replicated view (Hama).
	Replicas int64
	// ReplicaValueBytes is the memory the replicated view spends on cached
	// values: Replicas × sizeof(replica value). It is the deterministic side
	// of the paper's Table 4/5 memory trade (replica bytes vs message-buffer
	// bytes); zero for engines without replicas.
	ReplicaValueBytes int64
	// WorkerReplicas is the per-worker replica/mirror placement (len ==
	// Workers); nil for engines without a replicated view. It feeds the
	// replica-imbalance coefficient of the skew profile.
	WorkerReplicas []int64
	// EdgeCut is the number of edges whose endpoints land on different
	// workers under the run's partitioning — the load-time quality the paper's
	// Fig 11 correlates with replica count and message volume. Zero for the
	// GAS engine (vertex-cut: every edge is worker-local by construction).
	EdgeCut int64
	// PartitionBalance is the load-balance coefficient of the partitioning
	// (max partition load / mean load, ≥ 1; 1 is perfectly even). Edge-cut
	// engines report vertex balance, the vertex-cut engine edge balance.
	PartitionBalance float64
}

// StepRecord is one superstep as the kernel saw it: the single value emitted
// after the barrier, from which skew coefficients, heat rows, the span stream
// and the hot set are views a consumer computes if it wants them. The record
// and everything it points at is the kernel's per-run scratch, overwritten by
// the next superstep — valid only during the OnSuperstep call. A consumer
// copies what it keeps.
type StepRecord struct {
	Step  int
	Stats metrics.StepStats
	// Per-worker rows, indexed by worker — the per-worker visibility needed to
	// spot stragglers and skewed partitions live: edges scanned in compute,
	// vertices that computed, messages sent and received, and the
	// replica-sync share of Sent (all zero without a replicated view).
	Units, Active, Sent, Recv, Sync []int64
	// Comm is the worker×worker traffic of this superstep. Summing a run's
	// records reproduces the transport's cumulative Matrix — and therefore its
	// Stats totals — exactly. It is the one per-pair book: who sent what a
	// worker drained (Recv) is its column in the superstep the engine drains
	// (the same one for cyclops and gas, the one before for bsp).
	Comm transport.MatrixSnapshot
	// Violations is what the replica-invariant auditor found (engines with
	// Config.Audit enabled); the run fails with an AuditError after this
	// record is delivered.
	Violations []Violation
	// Recovery, when non-nil, is the checkpoint recovery this superstep's
	// barrier performed after a transient fault: the run resumes at its
	// ResumedAt and replays from there.
	Recovery *RecoveryEvent
	// Spans is the superstep's span measurements; AppendStepSpans turns it
	// into the canonical span stream.
	Spans StepSpanData
	// HeatMsgs and HeatUnits are the cumulative per-vertex counters behind the
	// Hot view; Owner maps a vertex to its master's worker.
	HeatMsgs, HeatUnits []int64
	Owner               func(v int) int
}

// Skew is the imbalance view: max/mean across workers of each per-worker row.
func (r *StepRecord) Skew() SkewStep {
	return SkewStep{Step: r.Step, Compute: imbalance(r.Units), Sent: imbalance(r.Sent),
		Received: imbalance(r.Recv), Active: imbalance(r.Active)}
}

// Hot is the cumulative top-k hot-vertex view as of this superstep. It scans
// every vertex, so consumers evaluate it at a bounded rate, never per barrier.
func (r *StepRecord) Hot() []HotVertex {
	return TopHotVertices(r.HeatMsgs, r.HeatUnits, r.Owner, DefaultHotK)
}

// Termination reasons reported by RunEnd.
const (
	ReasonNoActive      = "no-active"      // no vertex is active
	ReasonHalt          = "halt"           // the Halt function fired
	ReasonMaxSupersteps = "max-supersteps" // the superstep budget ran out
	ReasonAuditFailed   = "audit-failed"   // the replica-invariant auditor found a breach
	ReasonFault         = "fault"          // an unrecoverable transport/worker fault
)

// RunEnd describes a run as it terminates.
type RunEnd struct {
	// Step is the engine's superstep counter at exit; Reason one of the
	// Reason* constants.
	Step   int
	Reason string
	// Wall is the sum of the run's superstep walls — the run span's duration,
	// so it reconciles with the timings section totals.
	Wall time.Duration
	// Hot is the run's final cumulative top-k hot-vertex set, built once for
	// this event; consumers share it read-only.
	Hot []HotVertex
}

// RecoveryEvent describes one checkpoint recovery (§3.6): a transient
// transport/worker fault observed at superstep Step's barrier, rolled back to
// the checkpointed superstep ResumedAt.
type RecoveryEvent struct {
	// Engine is the engine's trace name.
	Engine string
	// Step is the superstep whose barrier observed the fault.
	Step int
	// ResumedAt is the superstep execution rewound to (the checkpoint's
	// next-step field).
	ResumedAt int
	// Attempt numbers the recoveries of this run, starting at 1.
	Attempt int
	// Cause is the transient error that triggered the recovery.
	Cause string
}

// Replayed is the number of supersteps the recovery re-executes: the faulty
// superstep plus everything since the checkpoint.
func (e RecoveryEvent) Replayed() int { return e.Step - e.ResumedAt + 1 }

// Hooks observes an engine run. Every call comes from the engine's
// coordinator goroutine, between barriers, in the grammar
//
//	OnRunStart { OnSuperstepStart OnSuperstep }* OnRunEnd
//
// which the superstep kernel makes structural: the run pair brackets a loop
// that may return freely, and nothing between OnSuperstepStart and
// OnSuperstep can fail.
//
// All engines treat a nil Hooks as "disabled": the only cost on the hot path
// is a nil-check.
type Hooks interface {
	// OnRunStart fires once, before the first superstep.
	OnRunStart(info RunInfo)
	// OnSuperstepStart fires at the top of each superstep.
	OnSuperstepStart(step int)
	// OnSuperstep fires once per superstep after the barrier with everything
	// the kernel knows about it, its phase durations and any recovery
	// included. rec is valid only during the call.
	OnSuperstep(rec *StepRecord)
	// OnRunEnd fires once when the run terminates, on every exit path.
	OnRunEnd(e RunEnd)
}

// Nop is a Hooks that does nothing. Engines treat nil and Nop identically;
// Nop exists so overhead can be benchmarked with the hook calls *taken*, and
// so partial observers can embed it.
type Nop struct{}

// OnRunStart implements Hooks.
func (Nop) OnRunStart(RunInfo) {}

// OnSuperstepStart implements Hooks.
func (Nop) OnSuperstepStart(int) {}

// OnSuperstep implements Hooks.
func (Nop) OnSuperstep(*StepRecord) {}

// OnRunEnd implements Hooks.
func (Nop) OnRunEnd(RunEnd) {}

// multi fans hook calls out to several observers.
type multi []Hooks

// Multi combines hooks, skipping nils. It returns nil when no non-nil hook
// remains (so engines keep their fast path) and the hook itself when only
// one remains.
func Multi(hs ...Hooks) Hooks {
	var m multi
	for _, h := range hs {
		if h != nil {
			m = append(m, h)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

func (m multi) OnRunStart(info RunInfo) {
	for _, h := range m {
		h.OnRunStart(info)
	}
}

func (m multi) OnSuperstepStart(step int) {
	for _, h := range m {
		h.OnSuperstepStart(step)
	}
}

func (m multi) OnSuperstep(rec *StepRecord) {
	for _, h := range m {
		h.OnSuperstep(rec)
	}
}

func (m multi) OnRunEnd(e RunEnd) {
	for _, h := range m {
		h.OnRunEnd(e)
	}
}
