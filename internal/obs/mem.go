package obs

import (
	"math"
	"runtime/metrics"

	intmetrics "cyclops/internal/metrics"
)

// This file is the memory observatory: a per-superstep, per-phase allocation
// sampler built on runtime/metrics (no stop-the-world, unlike
// runtime.ReadMemStats), feeding the quarantined mem.csv of every flight
// record and the live /mem endpoint. Allocation and GC quantities are
// inherently machine- and scheduling-dependent, so everything here follows
// the timings.csv discipline: recorded alongside the deterministic artifacts,
// never compared exactly. The deterministic counterparts — wire bytes and
// replica value bytes — live in series.csv and the manifest.

// memPhases is the number of attributable superstep phases (PRS/CMP/SND/SYN).
const memPhases = int(intmetrics.Sync) + 1

// memMetricNames are the runtime/metrics samples one memSnap reads, batched
// into a single metrics.Read call.
var memMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/goal:bytes",
	"/memory/classes/heap/objects:bytes",
	"/sched/pauses/total/gc:seconds",
}

// memSnap is one point-in-time sample of the allocation counters. The first
// four fields are cumulative since process start (deltas between snapshots
// attribute allocation to an interval); the last two are instantaneous.
type memSnap struct {
	allocBytes   uint64 // cumulative heap bytes allocated
	allocObjects uint64 // cumulative heap objects allocated
	gcCycles     uint64 // cumulative completed GC cycles
	pauseNs      int64  // cumulative GC stop-the-world pause (approx, from histogram)
	heapGoal     uint64 // current GC pacer heap goal
	heapLive     uint64 // current live heap object bytes
}

func memUint64(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// histogramNanos approximates the cumulative seconds of a runtime/metrics
// histogram as nanoseconds, weighting each bucket by its midpoint (infinite
// edges fall back to the finite edge). The approximation error is bounded by
// the bucket width — fine for a quarantined telemetry column.
func histogramNanos(s metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s.Value.Float64Histogram()
	var total float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		total += float64(count) * mid
	}
	return int64(total * 1e9)
}

// MemStep is one superstep's memory telemetry: allocation attributed to each
// phase (deltas between consecutive OnPhase boundaries), the step's totals,
// and the GC state at the step's end. Attribution is approximate — background
// goroutines allocate into whatever phase is open — which is one more reason
// these columns are quarantined.
type MemStep struct {
	Step         int               `json:"step"`
	PhaseBytes   [memPhases]uint64 `json:"phase_alloc_bytes"`
	PhaseObjects [memPhases]uint64 `json:"phase_allocs"`
	StepBytes    uint64            `json:"step_alloc_bytes"`
	StepObjects  uint64            `json:"step_allocs"`
	GCCycles     uint64            `json:"gc_cycles"`
	GCPauseNs    int64             `json:"gc_pause_ns"`
	HeapGoal     uint64            `json:"heap_goal_bytes"`
	HeapLive     uint64            `json:"heap_live_bytes"`
}

// memAttrib turns hook boundaries into MemSteps for the Log, which provides
// the locking. It reads the counters via runtime/metrics into one reused
// sample buffer, so a sample costs one metrics.Read and no allocation.
type memAttrib struct {
	samples   []metrics.Sample
	stepBase  memSnap // sample at superstep start
	phaseBase memSnap // sample at the last phase boundary
	cur       MemStep
	open      bool
}

func newMemAttrib() *memAttrib {
	a := &memAttrib{samples: make([]metrics.Sample, len(memMetricNames))}
	for i, name := range memMetricNames {
		a.samples[i].Name = name
	}
	return a
}

// sample reads all counters in one batch.
func (a *memAttrib) sample() memSnap {
	metrics.Read(a.samples)
	return memSnap{
		allocBytes:   memUint64(a.samples[0]),
		allocObjects: memUint64(a.samples[1]),
		gcCycles:     memUint64(a.samples[2]),
		heapGoal:     memUint64(a.samples[3]),
		heapLive:     memUint64(a.samples[4]),
		pauseNs:      histogramNanos(a.samples[5]),
	}
}

// startStep opens a superstep: both baselines move to now.
func (a *memAttrib) startStep(step int) {
	snap := a.sample()
	a.stepBase, a.phaseBase = snap, snap
	a.cur = MemStep{Step: step}
	a.open = true
}

// phase closes the interval since the previous boundary and attributes its
// allocation to p.
func (a *memAttrib) phase(p intmetrics.Phase) {
	if !a.open || int(p) < 0 || int(p) >= memPhases {
		return
	}
	snap := a.sample()
	a.cur.PhaseBytes[p] += snap.allocBytes - a.phaseBase.allocBytes
	a.cur.PhaseObjects[p] += snap.allocObjects - a.phaseBase.allocObjects
	a.phaseBase = snap
}

// endStep closes the superstep and returns its telemetry row.
func (a *memAttrib) endStep() MemStep {
	if !a.open {
		return MemStep{}
	}
	snap := a.sample()
	a.cur.StepBytes = snap.allocBytes - a.stepBase.allocBytes
	a.cur.StepObjects = snap.allocObjects - a.stepBase.allocObjects
	a.cur.GCCycles = snap.gcCycles - a.stepBase.gcCycles
	a.cur.GCPauseNs = snap.pauseNs - a.stepBase.pauseNs
	a.cur.HeapGoal = snap.heapGoal
	a.cur.HeapLive = snap.heapLive
	a.open = false
	return a.cur
}
