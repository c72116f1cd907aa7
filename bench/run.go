package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/transport"
)

// config is what the flags select for one run.
type config struct {
	seed    int64
	seconds float64 // measuring budget; the rep floors win when it is too short
	sizes   sizes
	floors  floors
	outDir  string // spans, flight records and checkpoints of a traced run
}

// execSample is what one construct → Run → check → Close repetition yields.
type execSample struct {
	construct, run float64 // seconds
	trace          *metrics.Trace
	stats          transport.Snapshot
	allocBytes     uint64 // TotalAlloc across construct + Run
	facts          engineFacts
}

// settle collects garbage so the next timed stage starts from the same heap
// state on every rep, and optionally reads the allocation counter.
func settle(log *spanLog, parent, rep int, ms *runtime.MemStats) {
	id := log.begin("bench.gc", parent, rep)
	runtime.GC()
	if ms != nil {
		runtime.ReadMemStats(ms)
	}
	log.end(id)
}

// execRep builds a fresh engine, runs it, checks the result against want and
// closes it. An error means the rep failed and its sample must be discarded.
func execRep(j job, layer string, p parted, want []float64, tol float64,
	log *spanLog, parent, rep int) (execSample, error) {

	var s execSample
	var before, after runtime.MemStats

	settle(log, parent, rep, &before)
	id := log.begin(layer+".construct", parent, rep)
	t := time.Now()
	e, err := j.construct(layer, p)
	s.construct = time.Since(t).Seconds()
	log.end(id)
	if err != nil {
		return s, fmt.Errorf("%s.New: %w", layer, err)
	}

	settle(log, parent, rep, nil)
	runID := log.begin(layer+".run", parent, rep)
	t = time.Now()
	tr, runErr := e.Run()
	s.run = time.Since(t).Seconds()
	log.end(runID)
	runtime.ReadMemStats(&after)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc

	var checkErr error
	if runErr == nil {
		log.addPhases(runID, layer, tr)
		s.trace, s.stats, s.facts = tr, e.TransportStats(), e.facts()

		id = log.begin(layer+".values", parent, rep)
		got := e.result()
		log.end(id)
		id = log.begin("bench.check", parent, rep)
		checkErr = checkResult(got, want, tol)
		log.end(id)
	}

	id = log.begin(layer+".close", parent, rep)
	closeErr := e.Close()
	log.end(id)

	switch {
	case runErr != nil:
		return s, fmt.Errorf("%s.Run: %w", layer, runErr)
	case checkErr != nil:
		return s, fmt.Errorf("%s result: %w", layer, checkErr)
	case closeErr != nil:
		return s, fmt.Errorf("%s.Close: %w", layer, closeErr)
	}
	return s, nil
}

// seconds times fn.
func seconds(fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	return time.Since(t).Seconds(), err
}

// prepared is what a rep has before it builds an engine: the graph loaded
// from the text and its partition, with what each took in seconds.
type prepared struct {
	g               *graph.Graph
	p               parted
	load, partition float64
}

// prepare runs the two stages of a rep that come before the engine, each
// after a collection: graph.Load of the text and the workload's partitioner.
func (w workload) prepare(in input, log *spanLog, parent, rep int) (prepared, error) {
	var pre prepared
	var err error

	settle(log, parent, rep, nil)
	id := log.begin("graph.load_text", parent, rep)
	pre.load, err = seconds(func() (err error) { pre.g, err = in.load(); return })
	log.end(id)
	if err != nil {
		return pre, fmt.Errorf("graph.Load: %w", err)
	}

	settle(log, parent, rep, nil)
	id = log.begin("partition.partition", parent, rep)
	pre.partition, err = seconds(func() (err error) { pre.p, err = w.partition(pre.g); return })
	log.end(id)
	if err != nil {
		return pre, fmt.Errorf("partition: %w", err)
	}
	return pre, nil
}

// report is everything one untraced run found out.
type report struct {
	summary
	AllocMB, WireMB, MsgsK float64
	Supersteps             int
	Vertices, Edges        int
	Reps                   int // pipeline reps that yielded samples
	Attempted, Failed      int
}

// measure is the untraced run. A rep is the whole pipeline — load, partition,
// construct, Run, check, Close — and reps repeat, after one untimed warm-up,
// until the measuring time is spent and never fewer than the floors. Every
// stage's minimum is thus taken over the whole run: with the stages one after
// the other, each in its own few seconds, a slow stretch of the machine that
// covered one stage's seconds moved setup_s by up to 47 % (README, "Noise
// method"). Every rep, the warm-up included, is an attempted operation and is
// checked against the reference; a failed rep contributes no sample.
func measure(w workload, cfg config) (report, error) {
	in, err := w.generate(cfg.sizes, cfg.seed)
	if err != nil {
		return report{}, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()

	var r report
	var s samples
	var want []float64
	var last execSample
	for rep := 0; ; rep++ {
		pre, err := w.prepare(in, nil, -1, rep)
		if err != nil {
			return r, err
		}
		if rep == 0 {
			// Every load yields the same graph, so one reference serves all reps.
			want = w.reference(pre.g, in)
			r.Vertices, r.Edges = pre.g.NumVertices(), pre.g.NumEdges()
		}
		j := job{g: pre.g, algo: w.algo, iters: in.iters, net: w.net}
		smp, err := execRep(j, w.layer, pre.p, want, in.tol, nil, -1, rep)
		r.Attempted++
		switch {
		case err != nil:
			r.Failed++
			fmt.Fprintf(os.Stderr, "rep %d failed: %v\n", rep, err)
		case rep > 0:
			s.load = append(s.load, pre.load)
			s.partition = append(s.partition, pre.partition)
			s.construct = append(s.construct, smp.construct)
			s.run = append(s.run, smp.run)
			last = smp
		}
		if rep >= max(cfg.floors.exec, cfg.floors.load) && time.Since(start) >= budget {
			break
		}
	}

	if r.summary, err = summarize(s, cfg.floors); err != nil {
		return r, err
	}
	r.AllocMB = float64(last.allocBytes) / 1e6
	r.WireMB = float64(last.stats.WireBytes) / 1e6
	r.MsgsK = float64(last.trace.TotalMessages()) / 1e3
	r.Supersteps = len(last.trace.Steps)
	r.Reps = len(s.run)
	return r, nil
}
