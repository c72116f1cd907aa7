package cyclops_test

// Benchmarks the cost of the observability hook points on the Cyclops
// superstep loop. The acceptance bar for the obs layer is that a nil Hooks
// (the default) adds <2% to the superstep loop versus the pre-hooks engine;
// since every hook site is a nil-check, comparing Hooks:nil against
// Hooks:obs.Nop{} bounds that cost from above — the Nop run *takes* every
// call and still measures the same loop.
//
//	go test ./internal/cyclops/ -run='^$' -bench=BenchmarkObserverOverhead -benchmem -count=5
//
// The hook sequence itself is asserted for every engine in one table,
// internal/superstep's TestHookSequenceOnRealRuns.

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
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

// BenchmarkAuditOff prices the default Audit=false path. The auditor adds
// one branch per superstep and one per receive phase when disabled, so this
// must stay within noise of BenchmarkObserverOverhead/dense/nil (which also
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

// BenchmarkObserverOverhead prices the one emission every observer hangs off,
// on two shapes: "dense" is the gate experiment's (PageRank on wiki@0.05, 30
// supersteps of real work) and "sparse" is many near-empty supersteps (SSSP
// over a 32×256 lattice, a few hundred barriers with a frontier of dozens),
// where the per-barrier fixed cost is all there is. "nil" is the default path
// (hook sites reduce to nil checks; no record, span or heat bookkeeping is even
// allocated); "nop" takes every call and fills the record; "log" adds the
// store's copy-out and view evaluation (what -debug-addr costs: /trace renders
// at scrape time); "verbose" adds -verbose's narration, one JSON line per
// superstep plus the slow-phase check; "recorder" adds the flush to disk.
func BenchmarkObserverOverhead(b *testing.B) {
	wiki, lattice := benchGraph(b), gen.Road(32, 256, 0, 1)
	shapes := []struct {
		name string
		run  func(tb testing.TB, hooks obs.Hooks)
	}{
		{"dense", func(tb testing.TB, hooks obs.Hooks) { runPR(tb, wiki, hooks) }},
		{"sparse", func(tb testing.TB, hooks obs.Hooks) {
			e, err := cyclops.New[float64, float64](lattice, algorithms.SSSPCyclops{Source: 0},
				cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: partition.Range{},
					MaxSupersteps: lattice.NumVertices() + 1, Hooks: hooks})
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				tb.Fatal(err)
			}
		}},
	}
	for _, shape := range shapes {
		recorder, err := obs.NewRecorder(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		verbose, err := obs.Setup(obs.Options{Verbose: true, SlowPhase: 3, Stderr: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range []struct {
			name  string
			hooks obs.Hooks
		}{{"nil", nil}, {"nop", obs.Nop{}}, {"log", obs.NewLog()}, {"verbose", verbose.Hooks}, {"recorder", recorder}} {
			b.Run(shape.name+"/"+o.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					shape.run(b, o.hooks)
				}
			})
		}
		if err := recorder.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparseSuperstep prices a superstep that has almost nothing to do:
// SSSP along a weighted path, one active vertex per superstep, at two sizes
// 32× apart. The ns/superstep it reports is the per-superstep fixed cost, and
// it must not grow with |V| the way a dense activity scan does.
func BenchmarkSparseSuperstep(b *testing.B) {
	const steps = 256
	for _, lg := range []int{15, 20} {
		b.Run(fmt.Sprintf("V=2^%d", lg), func(b *testing.B) {
			n := 1 << lg
			gb := graph.NewBuilder(n)
			for v := 0; v+1 < n; v++ {
				gb.AddWeightedEdge(graph.ID(v), graph.ID(v+1), float64(1+v%7))
			}
			benchSupersteps(b, gb.MustBuild(), algorithms.SSSPCyclops{Source: 0}, partition.Range{}, steps, transport.InProcess)
		})
	}
}

// BenchmarkDenseSuperstep is its dense twin, the shape of bench/'s
// pr-web-cyclops and pr-web-cyclops-tcp: fixed-iteration PageRank on gweb@0.5
// over Flat(2,1) and a hash cut, where every vertex with an in-edge computes,
// publishes and activates every superstep, in process ("local") and over
// loopback TCP ("tcp"); the difference is frames, codec and round markers.
// "floor" is CMP's gather floor on the same engine: PageRank's arithmetic as a
// plain loop over the engine's in-rows and view (PageRankFloor), per superstep.
// The graph goes through graph.Write and graph.Load first, so its vertices
// are numbered by first appearance in the edge list, the order bench/ runs
// on every seed. Run it with -cpu 1, as bench/ runs on one P.
func BenchmarkDenseSuperstep(b *testing.B) {
	gen0, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := graph.Write(&text, gen0); err != nil {
		b.Fatal(err)
	}
	g, _, err := graph.Load(&text)
	if err != nil {
		b.Fatal(err)
	}
	for _, net := range []transport.Network{transport.InProcess, transport.TCPLoopback} {
		name := map[transport.Network]string{transport.InProcess: "local", transport.TCPLoopback: "tcp"}[net]
		b.Run(name, func(b *testing.B) {
			benchSupersteps(b, g, algorithms.PageRankCyclops{}, partition.Hash{}, 20, net)
		})
	}
	b.Run("floor", func(b *testing.B) {
		e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: partition.Hash{}})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cyclops.PageRankFloor(e)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/superstep")
	})
}

// benchSupersteps times steps supersteps of prog on Flat(2,1) over net per
// iteration and reports ns/superstep and, from the phase durations of each
// Run's trace, CMP's share of it (cmp-ns/superstep, to read against the
// floor), restoring the engine's initial state untimed in between.
func benchSupersteps(b *testing.B, g *graph.Graph, prog cyclops.Program[float64, float64], part partition.Partitioner, steps int, net transport.Network) {
	e, err := cyclops.New[float64, float64](g, prog,
		cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 1), Partitioner: part, MaxSupersteps: steps, Network: net})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	start := e.Snapshot()
	var cmp time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.Restore(start); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		cmp += tr.PhaseTotals()[metrics.Compute]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/superstep")
	b.ReportMetric(float64(cmp.Nanoseconds())/float64(b.N*steps), "cmp-ns/superstep")
}

// TestSpanEmissionZeroAlloc pins the other half of the overhead contract:
// turning a superstep's measurements into spans allocates nothing beyond what
// the destination needs to grow — every span is a value appended to a slice
// the consumer reuses, so the only cost with hooks enabled is the per-run
// bookkeeping the superstep kernel allocates.
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
	}
	spans := obs.AppendStepSpans(nil, d)
	if want := workers*5 + 1; len(spans) != want {
		t.Fatalf("%d spans for %d workers, want %d", len(spans), workers, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		spans = obs.AppendStepSpans(spans[:0], d)
	}); allocs != 0 {
		t.Fatalf("AppendStepSpans allocates %.1f objects per superstep; want 0", allocs)
	}
}
