package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// ---------------------------------------------------------------------------
// Fig 11 — impact of the graph partitioning algorithm.

// Fig11PartitionsSweep reproduces Figure 11(1): the replication factor of
// the wiki substitution under hash and Metis-like partitioning as the
// partition count grows.
func Fig11PartitionsSweep(o Options, w io.Writer) error {
	o = o.normalize()
	g, _, err := dataset(o, "wiki")
	if err != nil {
		return err
	}
	t := newTable("partitions", "hash-replicas", "metis-replicas", "hash-cut%", "metis-cut%")
	for _, k := range []int{6, 12, 24, 48} {
		hashA, err := (partition.Hash{}).Partition(g, k)
		if err != nil {
			return err
		}
		metisA, err := (partition.Multilevel{Seed: o.Seed}).Partition(g, k)
		if err != nil {
			return err
		}
		edges := float64(g.NumEdges())
		t.addf("%d|%.2f|%.2f|%.0f|%.0f", k,
			hashA.ReplicationFactor(g), metisA.ReplicationFactor(g),
			100*float64(hashA.EdgeCut(g))/edges, 100*float64(metisA.EdgeCut(g))/edges)
	}
	t.write(w)
	fmt.Fprintf(w, "\n(mean out-degree %.2f bounds the hash curve from above)\n",
		float64(g.NumEdges())/float64(g.NumVertices()))
	return nil
}

// Fig11Datasets reproduces Figure 11(2): replication factor of every
// dataset at 48 partitions under both partitioners.
func Fig11Datasets(o Options, w io.Writer) error {
	o = o.normalize()
	k := o.flat().Workers()
	t := newTable("dataset", "hash-replicas", "metis-replicas")
	for _, name := range gen.Names() {
		g, _, err := dataset(o, name)
		if err != nil {
			return err
		}
		hashA, err := (partition.Hash{}).Partition(g, k)
		if err != nil {
			return err
		}
		metisA, err := (partition.Multilevel{Seed: o.Seed}).Partition(g, k)
		if err != nil {
			return err
		}
		t.addf("%s|%.2f|%.2f", name,
			hashA.ReplicationFactor(g), metisA.ReplicationFactor(g))
	}
	t.write(w)
	return nil
}

// Fig11Metis reproduces Figure 11(3): the Figure 9(1) speedup table under
// Metis-like partitioning (normalized against Hama under the same
// partition).
func Fig11Metis(o Options, w io.Writer) error {
	return fig9SpeedupWith(o.normalize(), w, partition.Multilevel{Seed: o.Seed})
}

// ---------------------------------------------------------------------------
// Fig 12 — CyclopsMT configuration sweep.

// Fig12MTSweep reproduces Figure 12: PageRank on gweb across the MxWxT/R
// configurations, with the modelled SYN/CMP/SND(+apply) phase split.
func Fig12MTSweep(o Options, w io.Writer) error {
	o = o.normalize()
	spec := workloadSpec{"PR", "gweb"}
	ctx, err := spec.prepare(o)
	if err != nil {
		return err
	}
	configs := []cluster.Config{
		cluster.Flat(o.Machines, 1),
		cluster.Flat(o.Machines, 2),
		cluster.Flat(o.Machines, 4),
		cluster.Flat(o.Machines, 8),
		cluster.MT(o.Machines, 1, 1),
		cluster.MT(o.Machines, 2, 1),
		cluster.MT(o.Machines, 4, 1),
		cluster.MT(o.Machines, 8, 1),
		cluster.MT(o.Machines, 8, 1),
		cluster.MT(o.Machines, 8, 2),
		cluster.MT(o.Machines, 8, 4),
		cluster.MT(o.Machines, 8, 8),
	}
	t := newTable("config", "SYN-ms", "CMP-ms", "SND+apply-ms", "total-ms", "replicas")
	best, bestTotal := "", 0.0
	for _, cc := range configs {
		r, err := RunWorkload("cyclops", "PR", ctx.graph, cc, partition.Hash{}, ctx.params)
		if err != nil {
			return err
		}
		b := modelBreakdown(r)
		t.addf("%s|%.1f|%.1f|%.1f|%.1f|%.2f", cc.String(),
			b.Sync/1e6, b.Compute/1e6, (b.Send+b.Parse)/1e6, b.Total()/1e6,
			r.Replication)
		if best == "" || b.Total() < bestTotal {
			best, bestTotal = cc.String(), b.Total()
		}
	}
	t.write(w)
	fmt.Fprintf(w, "\nbest configuration: %s (paper: 6x1x8/2)\n", best)
	return nil
}

// ---------------------------------------------------------------------------
// Fig 13 — ingress, size scaling, convergence speed.

// Fig13Ingress reproduces Figure 13(1): graph ingress breakdown into load
// (LD), replica creation (REP) and initialisation (INIT) for Hama and
// Cyclops.
func Fig13Ingress(o Options, w io.Writer) error {
	o = o.normalize()
	t := newTable("dataset", "LD-ms", "H-REP/INIT-ms", "C-REP/INIT-ms", "H-TOT", "C-TOT")
	for _, name := range gen.Names() {
		ldStart := time.Now()
		g, _, err := dataset(o, name)
		if err != nil {
			return err
		}
		ld := time.Since(ldStart)

		// Hama ingress = partition + value init (no replicas).
		hStart := time.Now()
		if _, err := bsp.New[float64, float64](g, algorithms.PageRankBSP{},
			bsp.Config[float64, float64]{Cluster: o.flat()}); err != nil {
			return err
		}
		hInit := time.Since(hStart)

		// Cyclops ingress = partition + replica creation + init.
		cStart := time.Now()
		ce, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclops.Config[float64, float64]{Cluster: o.flat()})
		if err != nil {
			return err
		}
		cTot := time.Since(cStart)
		ing := ce.Ingress()

		t.addf("%s|%.0f|0/%.0f|%.0f/%.0f|%.0f|%.0f", name,
			ms(ld), ms(hInit),
			ms(ing.Replication), ms(ing.Init),
			ms(ld)+ms(hInit), ms(ld)+ms(cTot))
	}
	t.write(w)
	fmt.Fprintln(w, "\n(REP is Cyclops-only; it is a one-time cost per loaded graph, §6.7)")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Fig13ScaleSize reproduces Figure 13(2): Hama vs CyclopsMT ALS execution
// time as the rating graph grows (the paper sweeps 0.34M → 20.2M edges and
// plots both systems).
func Fig13ScaleSize(o Options, w io.Writer) error {
	o = o.normalize()
	t := newTable("edges", "hama-model-ms", "cyclopsmt-model-ms", "speedup", "wall-H/MT-ms")
	for _, users := range []int{1250, 2500, 5000, 10000, 20000} {
		scaled := int(float64(users) * o.Scale)
		if scaled < 64 {
			scaled = 64
		}
		items := scaled / 10
		if items < 8 {
			items = 8
		}
		g := gen.Bipartite(scaled, items, 24, o.Seed)
		p := defaultParams(o)
		p.alsUsers = scaled
		hama, err := RunWorkload("hama", "ALS", g, o.flat(), partition.Hash{}, p)
		if err != nil {
			return err
		}
		mt, err := RunWorkload("cyclops", "ALS", g, o.mt(), partition.Hash{}, p)
		if err != nil {
			return err
		}
		t.addf("%d|%.1f|%.1f|%.2f|%.0f/%.0f", g.NumEdges(),
			hama.ModelMs, mt.ModelMs, speedup(hama.ModelMs, mt.ModelMs),
			float64(hama.Wall.Milliseconds()), float64(mt.Wall.Milliseconds()))
	}
	t.write(w)
	return nil
}

// Fig13Convergence reproduces Figure 13(3): L1-norm distance to the offline
// PageRank result as modelled time advances, for all three engines.
func Fig13Convergence(o Options, w io.Writer) error {
	o = o.normalize()
	g, _, err := dataset(o, "gweb")
	if err != nil {
		return err
	}
	ref := algorithms.PageRankRef(g, 200)

	type point struct {
		ms float64
		l1 float64
	}
	series := map[string][]point{}
	run := func(engine string, cc cluster.Config) error {
		p := defaultParams(o)
		p.MaxSteps = 60
		var pts []point
		p.onValues = func(step int, values []float64) {
			pts = append(pts, point{l1: algorithms.L1Distance(values, ref)})
		}
		r, err := RunWorkload(engine, "PR", g, cc, partition.Hash{}, p)
		if err != nil {
			return err
		}
		var cum float64
		for i := range pts {
			if i < len(r.Trace.Steps) {
				cum += r.Trace.Steps[i].ModelNanos / 1e6
			}
			pts[i].ms = cum
		}
		series[r.Engine] = pts
		return nil
	}
	if err := run("hama", o.flat()); err != nil {
		return err
	}
	if err := run("cyclops", o.flat()); err != nil {
		return err
	}
	if err := run("cyclops", o.mt()); err != nil {
		return err
	}

	t := newTable("engine", "step", "model-ms", "L1-distance")
	for _, name := range sortedKeys(series) {
		for i, pt := range series[name] {
			if i%2 == 0 || i == len(series[name])-1 { // thin the series
				t.addf("%s|%d|%.1f|%.2e", name, i, pt.ms, pt.l1)
			}
		}
	}
	t.write(w)
	return nil
}

// ---------------------------------------------------------------------------
// Tables 2–4.

// Table2Memory reproduces Table 2: peak heap and GC counts for PageRank on
// the wiki substitution under the three engine shapes, read by an
// obs.MemPeak: the peak live heap at a barrier and the run window's GC cycles
// and pause (MemRun). MemPeak keeps no rows, so the peak is the engine's and
// not an observer's. Runs share one Go heap, so runtime.GC precedes each row:
// the peak compares the engines' live sets, not the previous row's garbage.
func Table2Memory(o Options, w io.Writer) error {
	o = o.normalize()
	spec := workloadSpec{"PR", "wiki"}
	ctx, err := spec.prepare(o)
	if err != nil {
		return err
	}
	t := newTable("config", "peak-heap-MB", "GCs", "GC-pause-ms", "replicas/vertex", "messages")
	for _, run := range []struct {
		engine string
		cc     cluster.Config
	}{
		{"hama", o.flat()},
		{"cyclops", o.flat()},
		{"cyclops", o.mt()},
	} {
		mem := obs.NewMemPeak()
		p := ctx.params
		p.Hooks = obs.Multi(o.Hooks, mem)
		runtime.GC()
		r, err := RunWorkload(run.engine, "PR", ctx.graph, run.cc, partition.Hash{}, p)
		if err != nil {
			return err
		}
		t.addf("%s/%s|%.1f|%d|%.2f|%.2f|%d", r.Engine, run.cc.String(),
			float64(mem.Peak)/(1<<20), mem.Run.GCCycles, float64(mem.Run.GCPauseNs)/1e6,
			r.Replication, r.Messages)
	}
	t.write(w)
	fmt.Fprintln(w, "\n(Cyclops holds more replicas but allocates far fewer message objects,")
	fmt.Fprintln(w, " which is the paper's explanation for its lower GC pressure, §6.10)")
	return nil
}

// Table3Micro reproduces Table 3: the message-passing microbenchmark at
// three message volumes (paper: 5/25/50M; scaled by Options.Scale/10 here).
func Table3Micro(o Options, w io.Writer) error {
	o = o.normalize()
	t := newTable("messages", "hama-SND-ms", "hama-PRS-ms", "hama-TOT",
		"pg-SND-ms", "pg-PRS-ms", "pg-TOT", "cyclops-TOT")
	for _, base := range []int{5_000_000, 25_000_000, 50_000_000} {
		total := int(float64(base) * o.Scale / 10)
		if total < 100_000 {
			total = 100_000
		}
		const senders = 5
		h := transport.MicroHama(total, senders)
		p := transport.MicroPowerGraph(total, senders)
		c := transport.MicroCyclops(total, senders)
		for _, r := range []transport.MicroResult{h, p, c} {
			if err := transport.VerifyMicro(r); err != nil {
				return err
			}
		}
		t.addf("%d|%.1f|%.1f|%.1f|%.1f|%.1f|%.1f|%.1f", total,
			ms(h.Send), ms(h.Parse), ms(h.Total),
			ms(p.Send), ms(p.Parse), ms(p.Total),
			ms(c.Total))
	}
	t.write(w)
	return nil
}

// Table4PowerGraph reproduces Table 4: CyclopsMT vs the GAS engine on
// PageRank over the four web/social datasets, under both the default and
// the heuristic partitioners.
func Table4PowerGraph(o Options, w io.Writer) error {
	o = o.normalize()
	for _, heuristic := range []bool{false, true} {
		label := "hash-based partition (Cyclops: hash / PowerGraph: random vertex-cut)"
		var part partition.Partitioner = partition.Hash{}
		var cut gas.EdgePartitioner = gas.RandomVertexCut{}
		if heuristic {
			label = "heuristic partition (Cyclops: metis / PowerGraph: greedy vertex-cut)"
			part = partition.Multilevel{Seed: o.Seed}
			cut = gas.GreedyVertexCut{}
		}
		fmt.Fprintf(w, "\n%s\n", label)
		t := newTable("dataset", "cyclops-ms", "pg-ms", "cyc-replicas", "pg-replicas",
			"cyc-msgs", "pg-msgs", "msg/rep C:PG", "cyc-CMP%")
		for _, name := range []string{"amazon", "gweb", "ljournal", "wiki"} {
			g, _, err := dataset(o, name)
			if err != nil {
				return err
			}
			p := defaultParams(o)
			p.MaxSteps = 30 // fixed-round comparison, as in §6.12
			p.Eps = 0
			p.cut = cut
			cycRes, err := RunWorkload("cyclops", "PR", g, o.mt(), part, p)
			if err != nil {
				return err
			}
			pgRes, err := RunWorkload("powergraph", "PR", g, o.flat(), nil, p)
			if err != nil {
				return err
			}
			cb := modelBreakdown(cycRes)
			cycPerRep := perRep(cycRes.Messages, cycRes.Replication, g.NumVertices(), cycRes.Supersteps)
			pgPerRep := perRep(pgRes.Messages, pgRes.Replication, g.NumVertices(), pgRes.Supersteps)
			t.addf("%s|%.1f|%.1f|%.2f|%.2f|%d|%d|%.1f:%.1f|%.0f",
				name, cycRes.ModelMs, pgRes.ModelMs,
				cycRes.Replication, pgRes.Replication,
				cycRes.Messages, pgRes.Messages,
				cycPerRep, pgPerRep,
				100*cb.Compute/cb.Total())
		}
		t.write(w)
	}
	return nil
}

// perRep computes messages per replica per superstep.
func perRep(msgs int64, replication float64, n, steps int) float64 {
	replicas := replication * float64(n)
	if replicas <= 0 || steps == 0 {
		return 0
	}
	return float64(msgs) / replicas / float64(steps)
}
