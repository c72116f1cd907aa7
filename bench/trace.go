package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cyclops/internal/algorithms"
	"cyclops/internal/gas"
	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/transport"
)

// prober repeats a layer probe until the probe's share of the run is spent,
// at least twice, and keeps the fastest repetition.
type prober struct {
	share time.Duration
}

// time returns the smallest wall time of fn in seconds.
func (p prober) time(fn func() error) (float64, error) {
	return p.best(func() (float64, error) { return seconds(fn) })
}

// best is time for an fn that times itself, so that it can leave its set-up
// out.
func (p prober) best(fn func() (float64, error)) (float64, error) {
	start := time.Now()
	fastest := 0.0
	for rep := 0; rep < 2 || time.Since(start) < p.share; rep++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if rep == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest, nil
}

// traced is what a traced run found out.
type traced struct {
	values            values
	spanCover         float64 // smallest share of a rep span its stage spans cover
	spansPath         string
	vertices, edges   int
	attempted, failed int
	reps              int // pipeline reps that yielded samples
}

// trace is the traced run. It repeats the workload's whole pipeline —
// load, partition, construct, Run, Values, Close — under spans, each traced
// rep followed by an untraced exec rep, so that the two modes see the same
// machine; then it probes every layer on the workload's graph. The
// acceptance pipeline wants every per-layer metric from every traced run, so
// the two engines the workload does not use run as well, on the job all three
// share in the workloads: in-process PageRank. All of its timings are minima
// too.
func trace(w workload, cfg config) (traced, error) {
	in, err := w.generate(cfg.sizes, cfg.seed)
	if err != nil {
		return traced{}, err
	}
	g, err := in.load()
	if err != nil {
		return traced{}, fmt.Errorf("graph.Load: %w", err)
	}
	want := w.reference(g, in)
	out := traced{values: values{}, vertices: g.NumVertices(), edges: g.NumEdges()}

	// The pipeline gets two fifths of the run, each of the ~25 probes a
	// fortieth.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	log := newSpanLog()
	var load, tracedRun, plainRun []float64
	var own []execSample
	var p parted
	for rep := 0; rep <= cfg.floors.trace || time.Since(start) < budget*2/5; rep++ {
		repID := log.begin("rep", -1, rep)

		pre, err := w.prepare(in, log, repID, rep)
		if err != nil {
			return out, err
		}
		g, p = pre.g, pre.p

		j := job{g: g, algo: w.algo, iters: in.iters, net: w.net}
		smp, err := execRep(j, w.layer, p, want, in.tol, log, repID, rep)
		log.end(repID)
		plain, plainErr := execRep(j, w.layer, p, want, in.tol, nil, -1, rep)

		out.attempted += 2
		for _, e := range []error{err, plainErr} {
			if e != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "rep %d failed: %v\n", rep, e)
			}
		}
		if rep == 0 || err != nil || plainErr != nil {
			continue // warm-up, or a failed rep: no timing sample
		}
		load = append(load, pre.load)
		own = append(own, smp)
		tracedRun = append(tracedRun, smp.run)
		plainRun = append(plainRun, plain.run)
	}
	if len(own) == 0 {
		return out, fmt.Errorf("no traced rep of %s passed its check", w.name)
	}
	out.reps = len(own)
	out.spanCover = log.cover()
	out.spansPath = filepath.Join(cfg.outDir, w.name+".spans.json")
	if err := log.write(out.spansPath); err != nil {
		return out, err
	}

	v := out.values
	v["bench.trace_overhead_frac"] = best(tracedRun)/best(plainRun) - 1
	v["graph.load_text_s"] = best(load)
	v["graph.load_text_ns_per_edge"] = best(load) * 1e9 / float64(g.NumEdges())

	pr := prober{share: budget / 40}

	// Every engine gets both kinds of partition, whichever the workload's own
	// stage produced.
	if p.assign == nil {
		if p.assign, err = w.vertexCut.Partition(g, workers.Workers()); err != nil {
			return out, fmt.Errorf("partition: %w", err)
		}
	}
	if p.edges == nil {
		p.edges = gas.RandomVertexCut{}.PartitionEdges(g, workers.Workers())
	}

	inProcess := job{g: g, algo: w.algo, iters: in.iters, net: transport.InProcess}
	ranks, wantRanks := inProcess, want
	if w.algo != pageRank {
		ranks.algo, wantRanks = pageRank, algorithms.PageRankRef(g, in.iters)
	}
	for _, layer := range engineLayers {
		ss := own
		if layer != w.layer {
			ss = nil
			_, err := pr.best(func() (float64, error) {
				s, err := execRep(ranks, layer, p, wantRanks, rankTol, nil, -1, 0)
				out.attempted++
				if err != nil {
					out.failed++
					return 0, err
				}
				ss = append(ss, s)
				return s.construct + s.run, nil
			})
			if err != nil {
				return out, err
			}
		}
		engineValues(v, layer, ss, g)
	}
	// The cyclops samples above are of the workload's algorithm either way:
	// only cyclops runs anything but PageRank.
	units, err := cyclopsComputeUnits(inProcess, p)
	if err != nil {
		return out, err
	}
	v["cyclops.cmp_ns_per_edge"] = v["cyclops.cmp_s"] * 1e9 / float64(max(units, 1))

	for _, probe := range []func() error{
		func() error { return probeGraph(v, pr, g) },
		func() error { return probePartition(v, pr, g, p) },
		func() error { return probeTransport(v, pr) },
		func() error { return probeReferences(v, pr, g, in.iters) },
		func() error { return probeRecorder(v, pr, inProcess, p, want, in.tol, cfg.outDir) },
		func() error { return probeCheckpoint(v, pr, inProcess, p, cfg.outDir) },
	} {
		if err := probe(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// cyclopsComputeUnits runs j once on cyclops under a heat tracker and returns
// the edges all workers scanned in compute. A trace only has the busiest
// worker's; the count is the same on every run of j.
func cyclopsComputeUnits(j job, p parted) (int64, error) {
	heat := obs.NewHeatTracker()
	j.hooks = heat
	e, err := j.construct(layerCyclops, p)
	if err != nil {
		return 0, fmt.Errorf("cyclops.New: %w", err)
	}
	_, err = e.Run()
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("cyclops under obs.HeatTracker: %w", err)
	}
	var units int64
	for _, row := range heat.Rows() {
		units += row.ComputeUnits
	}
	return units, nil
}

// engineValues turns one engine's exec samples into its per-layer metrics:
// the fastest construction with its ingress split, and the phases of the
// fastest Run.
func engineValues(v values, layer string, ss []execSample, g *graph.Graph) {
	fast, built := ss[0], ss[0] // fastest Run, fastest construct
	for _, s := range ss[1:] {
		if s.run < fast.run {
			fast = s
		}
		if s.construct < built.construct {
			built = s
		}
	}
	ph := fast.trace.PhaseTotals()
	msgs := float64(max(fast.trace.TotalMessages(), 1))

	v[layer+".construct_s"] = built.construct
	v[layer+".cmp_s"] = ph[metrics.Compute].Seconds()
	v[layer+".syn_s"] = ph[metrics.Sync].Seconds()
	v[layer+".phase_cover"] = fast.trace.TotalDuration().Seconds() / fast.run

	// cyclops has no parse phase (receivers apply sync messages directly),
	// and gas books all of gather/apply/scatter as compute.
	switch layer {
	case layerCyclops:
		v["cyclops.ingress_replication_s"] = built.facts.ingressReplication.Seconds()
		v["cyclops.ingress_init_s"] = built.facts.ingressInit.Seconds()
		v["cyclops.ingress_ns_per_edge"] = built.construct * 1e9 / float64(g.NumEdges())
		v["cyclops.replicas_k"] = float64(fast.facts.replicas) / 1e3
		v["cyclops.snd_s"] = ph[metrics.Send].Seconds()
		// With one P the workers take turns, so a phase lasts as long as all
		// of them together, and SND divides by every worker's messages.
		// trace divides CMP by every worker's edges the same way; a
		// metrics.Trace only carries the busiest worker's.
		v["cyclops.snd_ns_per_msg"] = float64(ph[metrics.Send].Nanoseconds()) / msgs
		v["cyclops.step_us"] = fast.run * 1e6 / float64(len(fast.trace.Steps))
	case layerBSP:
		v["bsp.prs_s"] = ph[metrics.Parse].Seconds()
		v["bsp.snd_s"] = ph[metrics.Send].Seconds()
		v["bsp.ns_per_msg"] = fast.run * 1e9 / msgs
	case layerGAS:
		v["gas.ns_per_msg"] = fast.run * 1e9 / msgs
		v["gas.replication_factor"] = fast.facts.replication
	}
}
