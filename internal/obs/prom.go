package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// Metric names served on /metrics. The DESIGN.md observability section maps
// these to the paper's Figure 10 quantities.
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

// phaseBuckets are the upper bounds of the cyclops_phase_seconds histogram:
// 100µs .. ~100s in powers of 4, a good fit for superstep phase times from
// laptop to cluster scale. +Inf is implicit.
var phaseBuckets = [...]float64{1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 0.1, 0.4, 1.6, 6.4, 25.6, 102.4}

// totals is what /metrics reports across runs: the few facts the Log's per-run
// rows forget at OnRunStart. Guarded by the Log's mutex.
type totals struct {
	supersteps, messages, redundant, recoveries, replayed int64

	spans      [span.Deliver + 1]int64 // completed spans, by kind
	violations map[string]int64        // audit violations, by kind
	ended      map[string]int64        // completed runs, by termination reason
	phases     [metrics.Sync + 1]struct {
		buckets [len(phaseBuckets) + 1]uint64 // per bucket; cumulative at render
		sum     float64
		n       uint64
	}
}

func (t *totals) observePhase(p metrics.Phase, d time.Duration) {
	h, v := &t.phases[p], d.Seconds()
	h.buckets[sort.SearchFloat64s(phaseBuckets[:], v)]++
	h.sum += v
	h.n++
}

// promSample is one sample line of a metric family. key is what follows the
// family name: nothing, a {label="value"} set, or a histogram's
// _bucket/_sum/_count suffix with its labels.
type promSample struct{ key, value string }

// writeProm renders one metric family in the Prometheus text exposition
// format, samples in the order given.
func writeProm(w io.Writer, name, help, typ string, samples ...promSample) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, s.key, s.value); err != nil {
			return err
		}
	}
	return nil
}

// byLabel renders a one-label family's samples, sorted by label value.
func byLabel[V int64 | float64](label string, m map[string]V) []promSample {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	samples := make([]promSample, len(keys))
	for i, k := range keys {
		samples[i] = promSample{"{" + label + "=" + strconv.Quote(k) + "}", ftoa(float64(m[k]))}
	}
	return samples
}

// WriteMetrics renders the /metrics body from the log at scrape time: the
// cross-run totals, the latest run's gauges out of its retained rows, and
// three process gauges. Families are in name order; a family whose samples
// only exist after some event (a superstep, a violation, a run end) appears
// with its first sample.
func (l *Log) WriteMetrics(w io.Writer) error {
	var b strings.Builder
	one := func(name, help, typ string, v float64) {
		writeProm(&b, name, help, typ, promSample{"", ftoa(v)})
	}
	labeled := func(name, help, typ string, samples []promSample) {
		if len(samples) > 0 {
			writeProm(&b, name, help, typ, samples...)
		}
	}

	l.mu.Lock()
	t := &l.tot
	var last logStep
	var lastStats metrics.StepStats
	if n := len(l.steps); n > 0 {
		last, lastStats = l.steps[n-1], l.stats[n-1]
	}
	one(MetricActive, "Vertices that computed in the last superstep (Figure 10(2)).", "gauge",
		float64(lastStats.Active))
	labeled(MetricAuditViolations, "Replica-invariant violations found by the auditor, by kind.", "counter",
		byLabel("kind", t.violations))
	one(MetricChanged, "Computed vertices whose value changed in the last superstep.", "gauge",
		float64(lastStats.Changed))
	// The latest record's heat rows end the slice, in worker order from 0; the
	// run's rows sum to each worker's cumulative traffic.
	egress, ingress := map[string]int64{}, map[string]int64{}
	for _, p := range l.heat {
		if p.Worker >= l.info.Workers {
			continue // a record wider than its run announced
		}
		k := strconv.Itoa(p.Worker)
		egress[k] += p.OutInterior + p.OutBoundary
		ingress[k] += p.InInterior + p.InBoundary
	}
	if n := len(l.heat); n > 0 {
		var boundary, sync int64
		for i := n - 1; i >= 0; i-- {
			boundary, sync = boundary+l.heat[i].OutBoundary, sync+l.heat[i].ReplicaSync
			if l.heat[i].Worker == 0 {
				break
			}
		}
		one(MetricHeatBoundary, "Messages that crossed a partition boundary in the latest superstep.", "gauge",
			float64(boundary))
		one(MetricHeatReplicaSync, "Replica/mirror synchronisation messages in the latest superstep.", "gauge",
			float64(sync))
	}
	one(MetricMessages, "Data messages sent, summed over supersteps (Figure 10(3)).", "counter",
		float64(t.messages))
	var hist []promSample
	for _, p := range []metrics.Phase{metrics.Compute, metrics.Parse, metrics.Send, metrics.Sync} { // label order
		h := &t.phases[p]
		if h.n == 0 {
			continue
		}
		var cum uint64
		for i, n := range h.buckets {
			le := "+Inf"
			if i < len(phaseBuckets) {
				le = ftoa(phaseBuckets[i])
			}
			cum += n
			hist = append(hist, promSample{fmt.Sprintf("_bucket{phase=%q,le=%q}", p, le), strconv.FormatUint(cum, 10)})
		}
		hist = append(hist,
			promSample{fmt.Sprintf("_sum{phase=%q}", p), ftoa(h.sum)},
			promSample{fmt.Sprintf("_count{phase=%q}", p), strconv.FormatUint(h.n, 10)})
	}
	writeProm(&b, MetricPhase, "Per-superstep phase durations (PRS/CMP/SND/SYN of Figure 10(1)).", "histogram",
		hist...)
	one(MetricRecoveries, "Checkpoint recoveries performed after transient faults (§3.6).", "counter",
		float64(t.recoveries))
	one(MetricRedundant, "Messages from vertices whose value did not change (Figure 3(2)).", "counter",
		float64(t.redundant))
	one(MetricReplayedSupersteps, "Supersteps re-executed by checkpoint recoveries.", "counter",
		float64(t.replayed))
	var replication float64
	if l.info.Vertices > 0 {
		replication = float64(l.info.Replicas) / float64(l.info.Vertices)
	}
	one(MetricReplication, "Replicas per vertex of the latest run (Figure 11).", "gauge", replication)
	labeled(MetricRunsDone, "Engine runs completed, by termination reason.", "counter",
		byLabel("reason", t.ended))
	one(MetricRuns, "Engine runs started.", "counter", float64(l.runs))
	skew := map[string]float64{}
	if l.runs > 0 {
		skew["replicas"] = imbalance(l.info.WorkerReplicas)
	}
	if len(l.steps) > 0 {
		skew["compute"], skew["sent"] = last.skew.Compute, last.skew.Sent
		skew["received"], skew["active"] = last.skew.Received, last.skew.Active
	}
	labeled(MetricSkew, "Per-superstep load imbalance, max/mean across workers (1 = balanced).", "gauge",
		byLabel("metric", skew))
	kinds := map[string]int64{}
	for k, n := range t.spans {
		if n > 0 {
			kinds[span.Kind(k).String()] = n
		}
	}
	labeled(MetricSpans, "Completed causal spans, by kind.", "counter", byLabel("kind", kinds))
	one(MetricSuperstep, "Current superstep index of the latest run.", "gauge", float64(l.cur))
	one(MetricSupersteps, "Supersteps completed across all runs.", "counter", float64(t.supersteps))
	labeled(MetricWorkerEgress, "Messages sent by each worker, cumulative over the latest run.", "gauge",
		byLabel("worker", egress))
	labeled(MetricWorkerIngress, "Messages received by each worker, cumulative over the latest run.", "gauge",
		byLabel("worker", ingress))
	one(MetricWorkers, "Workers (= graph partitions) of the latest run.", "gauge", float64(l.info.Workers))
	l.mu.Unlock()

	// Process gauges, evaluated per scrape and outside the log's mutex.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	one("go_goroutines", "Live goroutines.", "gauge", float64(runtime.NumGoroutine()))
	one("go_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge", float64(ms.HeapAlloc))
	one("go_heap_sys_bytes", "Heap bytes obtained from the OS.", "gauge", float64(ms.HeapSys))
	_, err := io.WriteString(w, b.String())
	return err
}
