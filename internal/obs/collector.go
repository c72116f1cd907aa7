package obs

import (
	"runtime"
	"strconv"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// Metric names exported by the Collector. The DESIGN.md observability
// section maps these to the paper's Figure 10 quantities.
const (
	MetricSupersteps  = "cyclops_supersteps_total"
	MetricSuperstep   = "cyclops_superstep"
	MetricActive      = "cyclops_active_vertices"
	MetricChanged     = "cyclops_changed_vertices"
	MetricMessages    = "cyclops_messages_total"
	MetricRedundant   = "cyclops_redundant_messages_total"
	MetricPhase       = "cyclops_phase_seconds"
	MetricWorkers     = "cyclops_workers"
	MetricReplication = "cyclops_replication_factor"
	MetricRuns        = "cyclops_runs_total"
	MetricRunsDone    = "cyclops_runs_completed_total"

	// Fault-tolerance series (§3.6 recovery).
	MetricRecoveries         = "cyclops_recoveries_total"
	MetricReplayedSupersteps = "cyclops_replayed_supersteps_total"

	// Communication observatory series.
	MetricCommMessages    = "cyclops_comm_messages_total"
	MetricCommBytes       = "cyclops_comm_bytes_total"
	MetricCommWireBytes   = "cyclops_comm_wire_bytes_total"
	MetricWorkerEgress    = "cyclops_worker_egress_messages"
	MetricWorkerIngress   = "cyclops_worker_ingress_messages"
	MetricSkew            = "cyclops_skew_imbalance"
	MetricAuditViolations = "cyclops_audit_violations_total"

	// Causal span stream.
	MetricSpans = "cyclops_spans_total"

	// Heat observatory series.
	MetricHeatBoundary    = "cyclops_heat_boundary_messages"
	MetricHeatReplicaSync = "cyclops_heat_replica_sync_messages"
)

// Collector is a Hooks implementation that folds engine events into a
// Registry for the /metrics endpoint.
type Collector struct {
	reg *Registry

	runs        *Counter
	supersteps  *Counter
	stepGauge   *Gauge
	active      *Gauge
	changed     *Gauge
	messages    *Counter
	redundant   *Counter
	phase       *Histogram
	workers     *Gauge
	replication *Gauge
	recoveries  *Counter
	replayed    *Counter

	// Touched by hook calls only, i.e. from the coordinator goroutine.
	egress  []int64         // cumulative per-worker sent messages, latest run
	ingress []int64         // cumulative per-worker received messages, latest run
	heat    []HeatPartition // scratch: a record's heat rows
	spans   []span.Span     // scratch: a record's spans, counted by kind
}

// NewCollector registers the standard engine metrics on reg and returns the
// hooks feeding them.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		reg:  reg,
		runs: reg.Counter(MetricRuns, "Engine runs started."),
		supersteps: reg.Counter(MetricSupersteps,
			"Supersteps completed across all runs."),
		stepGauge: reg.Gauge(MetricSuperstep,
			"Current superstep index of the latest run."),
		active: reg.Gauge(MetricActive,
			"Vertices that computed in the last superstep (Figure 10(2))."),
		changed: reg.Gauge(MetricChanged,
			"Computed vertices whose value changed in the last superstep."),
		messages: reg.Counter(MetricMessages,
			"Data messages sent, summed over supersteps (Figure 10(3))."),
		redundant: reg.Counter(MetricRedundant,
			"Messages from vertices whose value did not change (Figure 3(2))."),
		phase: reg.Histogram(MetricPhase,
			"Per-superstep phase durations (PRS/CMP/SND/SYN of Figure 10(1)).",
			"phase", DefaultDurationBuckets()),
		workers: reg.Gauge(MetricWorkers,
			"Workers (= graph partitions) of the latest run."),
		replication: reg.Gauge(MetricReplication,
			"Replicas per vertex of the latest run (Figure 11)."),
		recoveries: reg.Counter(MetricRecoveries,
			"Checkpoint recoveries performed after transient faults (§3.6)."),
		replayed: reg.Counter(MetricReplayedSupersteps,
			"Supersteps re-executed by checkpoint recoveries."),
	}
}

// Registry returns the registry the collector writes into.
func (c *Collector) Registry() *Registry { return c.reg }

// OnRunStart implements Hooks: the per-run gauges restart here.
func (c *Collector) OnRunStart(info RunInfo) {
	c.runs.Inc()
	c.workers.Set(float64(info.Workers))
	if info.Vertices > 0 {
		c.replication.Set(float64(info.Replicas) / float64(info.Vertices))
	}
	c.skew("replicas", imbalance(info.WorkerReplicas))
	c.egress = make([]int64, info.Workers)
	c.ingress = make([]int64, info.Workers)
}

// OnSuperstepStart implements Hooks.
func (c *Collector) OnSuperstepStart(step int) {
	c.stepGauge.Set(float64(step))
}

// OnPhase implements Hooks.
func (c *Collector) OnPhase(step int, phase metrics.Phase, d time.Duration) {
	c.phase.Observe(phase.String(), d.Seconds())
}

// OnSuperstep implements Hooks: folds the record's aggregates into the
// registry. Per-worker rows feed the tracer and the full per-partition rows
// stay on /heat; the registry keeps aggregate series, each worker's cumulative
// egress and ingress, and the two heat aggregates worth a live gauge.
func (c *Collector) OnSuperstep(rec *StepRecord) {
	s := &rec.Stats
	c.supersteps.Inc()
	c.active.Set(float64(s.Active))
	c.changed.Set(float64(s.Changed))
	c.messages.Add(float64(s.Messages))
	c.redundant.Add(float64(s.RedundantMessages))

	c.heat = rec.AppendHeat(c.heat[:0])
	var boundary, sync int64
	for w, p := range c.heat {
		boundary += p.OutBoundary
		sync += p.ReplicaSync
		if w >= len(c.egress) {
			continue // a record wider than its run announced
		}
		c.egress[w] += p.OutInterior + p.OutBoundary
		c.ingress[w] += p.InInterior + p.InBoundary
		label := strconv.Itoa(w)
		c.reg.LabeledGauge(MetricWorkerEgress,
			"Messages sent by each worker, cumulative over the latest run.",
			"worker", label).Set(float64(c.egress[w]))
		c.reg.LabeledGauge(MetricWorkerIngress,
			"Messages received by each worker, cumulative over the latest run.",
			"worker", label).Set(float64(c.ingress[w]))
	}
	c.reg.Gauge(MetricHeatBoundary,
		"Messages that crossed a partition boundary in the latest superstep.").Set(float64(boundary))
	c.reg.Gauge(MetricHeatReplicaSync,
		"Replica/mirror synchronisation messages in the latest superstep.").Set(float64(sync))
	c.spans = AppendStepSpans(c.spans[:0], rec.Spans)
	var kinds [span.Deliver + 1]float64
	for i := range c.spans {
		kinds[c.spans[i].Kind]++
	}
	for kind, n := range kinds {
		if n > 0 {
			c.spanCount(span.Kind(kind), n)
		}
	}
	for _, v := range rec.Violations {
		c.reg.LabeledCounter(MetricAuditViolations,
			"Replica-invariant violations found by the auditor, by kind.",
			"kind", v.Kind).Inc()
	}
	sk := rec.Skew()
	c.skew("compute", sk.Compute)
	c.skew("sent", sk.Sent)
	c.skew("received", sk.Received)
	c.skew("active", sk.Active)
}

func (c *Collector) skew(metric string, v float64) {
	c.reg.LabeledGauge(MetricSkew,
		"Per-superstep load imbalance, max/mean across workers (1 = balanced).",
		"metric", metric).Set(v)
}

func (c *Collector) spanCount(kind span.Kind, n float64) {
	c.reg.LabeledCounter(MetricSpans,
		"Completed causal spans, by kind.", "kind", kind.String()).Add(n)
}

// OnRecovery implements Hooks.
func (c *Collector) OnRecovery(e RecoveryEvent) {
	c.recoveries.Inc()
	c.replayed.Add(float64(e.Replayed()))
}

// OnRunEnd implements Hooks.
func (c *Collector) OnRunEnd(e RunEnd) {
	c.spanCount(span.Run, 1)
	c.reg.LabeledCounter(MetricRunsDone,
		"Engine runs completed, by termination reason.", "reason", e.Reason).Inc()
}

// RegisterRuntime adds process-level gauges (goroutines, heap) to reg —
// cheap enough to evaluate at every scrape.
func RegisterRuntime(reg *Registry) {
	reg.GaugeFunc("go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("go_heap_sys_bytes", "Heap bytes obtained from the OS.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapSys)
		})
}
