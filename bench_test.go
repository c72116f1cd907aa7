package cyclops

// One benchmark per table and figure of the paper's evaluation (§6), each
// delegating to the harness runner indexed in DESIGN.md, plus engine-level
// micro-benchmarks with allocation reporting. The macro benchmarks run the
// full experiment per iteration; set CYCLOPS_BENCH_SCALE to trade fidelity
// for speed (default 0.1 ≈ a few thousand vertices per dataset).

import (
	"io"
	"os"
	"strconv"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	cyclopseng "cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/graphlab"
	"cyclops/internal/harness"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Scale = 0.1
	if s := os.Getenv("CYCLOPS_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			o.Scale = v
		}
	}
	return o
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact -------------------------------------

func BenchmarkFig3ConvergencePerSuperstep(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4Models(b *testing.B)                  { benchExperiment(b, "fig4") }
func BenchmarkFig9Speedup(b *testing.B)                 { benchExperiment(b, "fig9.1") }
func BenchmarkFig9Scalability(b *testing.B)             { benchExperiment(b, "fig9.2") }
func BenchmarkFig10Breakdown(b *testing.B)              { benchExperiment(b, "fig10.1") }
func BenchmarkFig10ActiveVertices(b *testing.B)         { benchExperiment(b, "fig10.2") }
func BenchmarkFig10Messages(b *testing.B)               { benchExperiment(b, "fig10.3") }
func BenchmarkFig11Replication(b *testing.B)            { benchExperiment(b, "fig11.1") }
func BenchmarkFig11Datasets(b *testing.B)               { benchExperiment(b, "fig11.2") }
func BenchmarkFig11MetisSpeedup(b *testing.B)           { benchExperiment(b, "fig11.3") }
func BenchmarkFig12MTConfigs(b *testing.B)              { benchExperiment(b, "fig12") }
func BenchmarkFig13Ingress(b *testing.B)                { benchExperiment(b, "fig13.1") }
func BenchmarkFig13ScaleWithSize(b *testing.B)          { benchExperiment(b, "fig13.2") }
func BenchmarkFig13Convergence(b *testing.B)            { benchExperiment(b, "fig13.3") }
func BenchmarkTable2Memory(b *testing.B)                { benchExperiment(b, "table2") }
func BenchmarkTable3MessagePassing(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkTable4PowerGraph(b *testing.B)            { benchExperiment(b, "table4") }

// --- engine micro-benchmarks ----------------------------------------------

// benchGraph is shared across engine benches (amazon-like power-law).
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := gen.Dataset("amazon", 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkHamaPageRank measures the BSP engine end to end: 10 fixed
// PageRank iterations per op.
func BenchmarkHamaPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{},
			bsp.Config[float64, float64]{Cluster: cluster.Flat(6, 8), MaxSupersteps: 11})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCyclopsPageRank measures the flat Cyclops engine: 10 iterations.
func BenchmarkCyclopsPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := cyclopseng.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclopseng.Config[float64, float64]{Cluster: cluster.Flat(6, 8), MaxSupersteps: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCyclopsMTPageRank measures the hierarchical engine (6×1×8/2).
func BenchmarkCyclopsMTPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := cyclopseng.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclopseng.Config[float64, float64]{Cluster: cluster.MT(6, 8, 2), MaxSupersteps: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGASPageRank measures the PowerGraph-like engine: 10 iterations.
func BenchmarkGASPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := gas.New[algorithms.PRValue, float64](g,
			algorithms.NewPageRankGAS(g, 10, 0),
			gas.Config[algorithms.PRValue, float64]{Cluster: cluster.Flat(6, 1), MaxSupersteps: 10,
				ValCodec: algorithms.PRValueCodec{}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCyclopsIngress isolates replica creation (Figure 13(1)'s REP).
func BenchmarkCyclopsIngress(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cyclopseng.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclopseng.Config[float64, float64]{Cluster: cluster.Flat(6, 8)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultilevelPartition measures the Metis-like partitioner.
func BenchmarkMultilevelPartition(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (partition.Multilevel{Seed: 1}).Partition(g, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphLabPageRank measures the async comparator engine.
func BenchmarkGraphLabPageRank(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := graphlab.New[float64](g,
			algorithms.PageRankGraphLab{Eps: 1e-6, N: g.NumVertices()},
			graphlab.Config[float64]{Cluster: cluster.Flat(6, 1)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 3's three message paths as Go benchmarks (1M messages, 5 senders).
func BenchmarkMicroHamaPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := transport.MicroHama(1_000_000, 5)
		if err := transport.VerifyMicro(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroPowerGraphPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := transport.MicroPowerGraph(1_000_000, 5)
		if err := transport.VerifyMicro(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroCyclopsPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := transport.MicroCyclops(1_000_000, 5)
		if err := transport.VerifyMicro(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- cost-model calibration -------------------------------------------------
// These measure the per-operation costs the metrics.CostModel constants are
// calibrated against. Run with -bench 'Calibrate' -benchtime 100x and divide
// ns/op by the op count in each name.

// BenchmarkCalibrateComputeUnit scans edges through the CSR the way a
// compute phase does (ComputeUnit ≈ ns per edge).
func BenchmarkCalibrateComputeUnit(b *testing.B) {
	g := benchGraph(b)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.NumVertices(); v++ {
			ws := g.InWeights(graph.ID(v))
			var sum float64
			for _, w := range ws {
				sum += w
			}
			sink += sum
		}
	}
	_ = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

// pairCodec prices the calibration benches' (vertex, value) pairs as two
// 8-byte words, the 16 bytes the payload estimate charges.
type pairCodec struct{}

func (pairCodec) EncodedSize([2]float64) int { return 16 }

func (pairCodec) Append(dst []byte, m [2]float64) []byte {
	return graph.Float64Codec{}.Append(graph.Float64Codec{}.Append(dst, m[0]), m[1])
}

func (pairCodec) Decode(src []byte) (m [2]float64, n int, err error) {
	if len(src) < 16 {
		return m, 0, graph.ErrShortBuffer
	}
	m[0], _, _ = graph.Float64Codec{}.Decode(src)
	m[1], _, _ = graph.Float64Codec{}.Decode(src[8:])
	return m, 16, nil
}

// BenchmarkCalibrateSendMsg measures batching + enqueueing through the
// per-sender transport (SendMsg ≈ ns per message).
func BenchmarkCalibrateSendMsg(b *testing.B) {
	const n = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := transport.NewLocal[[2]float64](2, transport.PerSenderQueue, nil, pairCodec{})
		batch := make([][2]float64, 0, 1024)
		for m := 0; m < n; m++ {
			batch = append(batch, [2]float64{float64(m), 1})
			if len(batch) == cap(batch) {
				tr.Send(0, 1, batch)
				batch = make([][2]float64, 0, 1024)
			}
		}
		tr.Send(0, 1, batch)
		tr.Drain(1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/msg")
}

// BenchmarkCalibrateParseMsg measures the queue-and-parse receive path
// (ParseMsg ≈ ns per message): drain, then group per destination vertex.
func BenchmarkCalibrateParseMsg(b *testing.B) {
	const n = 100_000
	const vertices = 4096
	inbox := make([][]float64, vertices)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := transport.NewLocal[[2]float64](2, transport.GlobalQueue, nil, pairCodec{})
		batch := make([][2]float64, n)
		for m := range batch {
			batch[m] = [2]float64{float64(m % vertices), 1}
		}
		tr.Send(0, 1, batch)
		b.StartTimer()
		for _, bb := range tr.Drain(1) {
			for _, env := range bb {
				v := int(env[0])
				inbox[v] = append(inbox[v], env[1])
			}
		}
		b.StopTimer()
		for v := range inbox {
			inbox[v] = inbox[v][:0]
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/msg")
}

// BenchmarkCalibrateApplyMsg measures Cyclops' direct replica update
// (ApplyMsg ≈ ns per message): no locks, no grouping.
func BenchmarkCalibrateApplyMsg(b *testing.B) {
	const n = 100_000
	view := make([]float64, 4096)
	batch := make([][2]float64, n)
	for m := range batch {
		batch[m] = [2]float64{float64(m % len(view)), float64(m)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range batch {
			view[int(m[0])] = m[1]
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/msg")
}
