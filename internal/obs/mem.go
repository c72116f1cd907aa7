package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// This file is the memory observatory, in two layers. Per run, one
// runtime.ReadMemStats at each end of the run gives MemRun: each call stops
// the world and flushes every mcache, so its allocation count is exact. Per
// superstep, one runtime/metrics batch read at the barrier (no stop-the-world)
// gives a MemStep, feeding the quarantined mem section and the live /mem endpoint.
// Allocation and GC quantities are machine- and scheduling-dependent, so both
// follow the timings section discipline: recorded alongside the deterministic
// artifacts, never compared exactly. The deterministic counterparts — wire
// bytes and replica value bytes — live in the series section and the manifest.

// memMetricNames are the runtime/metrics samples one memSnap reads, batched
// into a single metrics.Read call.
var memMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/goal:bytes",
	"/memory/classes/heap/objects:bytes",
	"/sched/pauses/total/gc:seconds",
}

// memSnap is one point-in-time sample of the allocation counters. The first
// three fields are cumulative since process start (deltas between snapshots
// attribute allocation to an interval); the last two are instantaneous.
type memSnap struct {
	allocBytes uint64 // cumulative heap bytes allocated
	gcCycles   uint64 // cumulative completed GC cycles
	pauseNs    int64  // cumulative GC stop-the-world pause (approx, from histogram)
	heapGoal   uint64 // current GC pacer heap goal
	heapLive   uint64 // current live heap object bytes
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

// MemStep is one superstep's memory telemetry: the heap bytes allocated, GC
// cycles completed and GC pause since the previous barrier (the run's start
// for the first superstep), and the GC state at this barrier. The runtime
// books a small-object span's allocations when the span is refilled or
// flushed, so AllocBytes lands in whichever superstep that happens — one more
// reason these columns are quarantined. MemRun holds the exact run totals.
type MemStep struct {
	Step       int    `json:"step"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	GCPauseNs  int64  `json:"gc_pause_ns"`
	HeapGoal   uint64 `json:"heap_goal_bytes"`
	HeapLive   uint64 `json:"heap_live_bytes"`
}

// MemRun is a run's allocation totals: the deltas of runtime.MemStats'
// Mallocs, TotalAlloc, NumGC and PauseTotalNs between the end of OnRunStart
// and the top of OnRunEnd. The counts are exact, but the window holds
// everything the process allocated meanwhile, the observers' own per-superstep
// bookkeeping included, and GC work depends on the machine and the schedule.
type MemRun struct {
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// memAttrib turns hook boundaries into MemSteps and a MemRun for the Log,
// which provides the locking. Its reads go into buffers it owns, so none of
// them allocates.
type memAttrib struct {
	samples    []metrics.Sample
	base       memSnap          // sample at the previous barrier
	start, end runtime.MemStats // the run window's two ends
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
		allocBytes: memUint64(a.samples[0]),
		gcCycles:   memUint64(a.samples[1]),
		heapGoal:   memUint64(a.samples[2]),
		heapLive:   memUint64(a.samples[3]),
		pauseNs:    histogramNanos(a.samples[4]),
	}
}

// startRun opens the run window and the first superstep's.
func (a *memAttrib) startRun() {
	a.base = a.sample()
	runtime.ReadMemStats(&a.start)
}

// step closes the window since the previous barrier and returns its row.
func (a *memAttrib) step(step int) MemStep {
	s := a.sample()
	row := MemStep{Step: step, AllocBytes: s.allocBytes - a.base.allocBytes,
		GCCycles: s.gcCycles - a.base.gcCycles, GCPauseNs: s.pauseNs - a.base.pauseNs,
		HeapGoal: s.heapGoal, HeapLive: s.heapLive}
	a.base = s
	return row
}

// endRun closes the run window and returns its totals.
func (a *memAttrib) endRun() MemRun {
	runtime.ReadMemStats(&a.end)
	return MemRun{Allocs: a.end.Mallocs - a.start.Mallocs,
		AllocBytes: a.end.TotalAlloc - a.start.TotalAlloc,
		GCCycles:   uint64(a.end.NumGC - a.start.NumGC),
		GCPauseNs:  a.end.PauseTotalNs - a.start.PauseTotalNs}
}

// MemPeak is a memory-only observer for experiments that compare engines'
// heaps (Table 2): the largest live heap read at a barrier or at the run's
// end, and the run's MemRun, through the same memAttrib as the Log's mem
// section. It keeps no rows, so its own footprint is a few fixed buffers and
// the peak it reads is the engine's, not an observer's. It describes the
// newest run it saw; read it after the run has returned.
type MemPeak struct {
	Nop
	attrib *memAttrib
	Peak   uint64 // bytes
	Run    MemRun
}

// NewMemPeak returns a MemPeak ready to attach as Hooks.
func NewMemPeak() *MemPeak { return &MemPeak{attrib: newMemAttrib()} }

// OnRunStart implements Hooks: resets the peak and opens the run window.
func (m *MemPeak) OnRunStart(RunInfo) {
	m.Peak, m.Run = 0, MemRun{}
	m.attrib.startRun()
}

// OnSuperstep implements Hooks: one barrier read.
func (m *MemPeak) OnSuperstep(rec *StepRecord) {
	m.Peak = max(m.Peak, m.attrib.step(rec.Step).HeapLive)
}

// OnRunEnd implements Hooks: closes the run window, then reads the heap once
// more, so a run with no superstep still has a peak.
func (m *MemPeak) OnRunEnd(RunEnd) {
	m.Run = m.attrib.endRun()
	m.Peak = max(m.Peak, m.attrib.sample().heapLive)
}
