package cyclops_test

// Benchmarks the cost of the observability hook points on the Cyclops
// superstep loop. The acceptance bar for the obs layer is that a nil Hooks
// (the default) adds <2% to the superstep loop versus the pre-hooks engine;
// since every hook site is a nil-check, comparing Hooks:nil against
// Hooks:obs.Nop{} bounds that cost from above — the Nop run *takes* every
// call and still measures the same loop.
//
//	go test ./internal/cyclops/ -run='^$' -bench=BenchmarkHooks -count=5
//
// The hook sequence itself is asserted for every engine in one table,
// internal/superstep's TestHookSequenceOnRealRuns.

import (
	"testing"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/partition"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := gen.Dataset("wiki", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runPR(tb testing.TB, g *graph.Graph, hooks obs.Hooks) {
	runPRAudit(tb, g, hooks, false)
}

func runPRAudit(tb testing.TB, g *graph.Graph, hooks obs.Hooks, audit bool) {
	e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{Eps: 1e-4},
		cyclops.Config[float64, float64]{
			Cluster:       cluster.Flat(2, 2),
			Partitioner:   partition.Hash{},
			MaxSupersteps: 30,
			Hooks:         hooks,
			Audit:         audit,
		})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkHooksNil is the default path: Hooks == nil, hook sites reduce to
// one nil-check each.
func BenchmarkHooksNil(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPR(b, g, nil)
	}
}

// BenchmarkHooksNop takes every hook call through a do-nothing observer — an
// upper bound on the dispatch overhead the hook points add.
func BenchmarkHooksNop(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPR(b, g, obs.Nop{})
	}
}

// BenchmarkHooksTracer prices the full ring-only tracer, for context (this
// is what -debug-addr without -verbose costs).
func BenchmarkHooksTracer(b *testing.B) {
	g := benchGraph(b)
	tracer := obs.NewTracer(nil, obs.TracerOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPR(b, g, tracer)
	}
}

// BenchmarkAuditOff prices the default Audit=false path. The auditor adds
// one branch per superstep and one per receive phase when disabled, so this
// must stay within noise of BenchmarkHooksNil (the PR 1 baseline, which also
// already includes the transport's per-peer matrix counting — two atomic
// adds per batch).
func BenchmarkAuditOff(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPRAudit(b, g, nil, false)
	}
}

// BenchmarkAuditOn prices the full replica-invariant audit — a delivery
// pre-pass over every drained batch plus an exact-equality scan of every
// replica against its master, each superstep. This is the documented cost of
// -audit; it is opt-in and deliberately not optimised further.
func BenchmarkAuditOn(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPRAudit(b, g, nil, true)
	}
}

// BenchmarkSpanOverhead prices the causal span stream on the gate experiment
// shape. The "nil" case is the default path (hook sites reduce to nil checks
// and must stay allocation-free on the span account — there is no span code
// on that path at all); "tracker" takes the full emission through a
// SpanTracker, which the CI perf gate bounds at <2% over nil.
func BenchmarkSpanOverhead(b *testing.B) {
	g := benchGraph(b)
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPR(b, g, nil)
		}
	})
	b.Run("tracker", func(b *testing.B) {
		b.ReportAllocs()
		tracker := obs.NewSpanTracker()
		for i := 0; i < b.N; i++ {
			runPR(b, g, tracker)
		}
	})
}

// BenchmarkHeatOverhead prices the heat observatory on the gate experiment
// shape. "nil" is the default path (the per-vertex heat counters are not even
// allocated); "tracker" routes every superstep's heat record — per-partition
// rows plus the exact top-k hot-vertex scan — through a HeatTracker. The CI
// perf gate bounds tracker at <2% over nil.
func BenchmarkHeatOverhead(b *testing.B) {
	g := benchGraph(b)
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runPR(b, g, nil)
		}
	})
	b.Run("tracker", func(b *testing.B) {
		b.ReportAllocs()
		tracker := obs.NewHeatTracker()
		for i := 0; i < b.N; i++ {
			runPR(b, g, tracker)
		}
	})
}

// TestSpanEmissionZeroAlloc pins the other half of the overhead contract:
// assembling and emitting a superstep's spans allocates nothing — every span
// is a value passed through the Hooks interface, so the only cost with hooks
// enabled is the per-run bookkeeping the superstep kernel allocates.
func TestSpanEmissionZeroAlloc(t *testing.T) {
	const workers = 4
	d := obs.StepSpanData{
		Run: 1, Step: 3, Wall: 4 * time.Millisecond,
		Parse:       make([]time.Duration, workers),
		Compute:     make([]time.Duration, workers),
		Send:        make([]time.Duration, workers),
		SerializeNs: make([]int64, workers),
		Units:       make([]int64, workers),
		Sent:        make([]int64, workers),
		Recv:        make([]int64, workers),
		Deliveries:  make([][]span.Delivery, workers),
	}
	for w := 0; w < workers; w++ {
		d.Deliveries[w] = []span.Delivery{{From: (w + 1) % workers,
			Ctx: span.Context{Run: 1, Step: 3, Worker: int32((w + 1) % workers)}, Msgs: 7}}
	}
	h := obs.Hooks(obs.Nop{})
	if allocs := testing.AllocsPerRun(100, func() {
		obs.EmitStepSpans(h, d)
	}); allocs != 0 {
		t.Fatalf("EmitStepSpans allocates %.1f objects per superstep; want 0", allocs)
	}
}
