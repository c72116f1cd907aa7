package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cyclops/internal/algorithms"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
	"cyclops/internal/transport"
)

// Layer probes: each drives one module from outside through its public
// functions, on the traced workload's graph where the module takes one.

// sink keeps the probes' results alive so the compiler cannot drop the loops.
var sink float64

func probeGraph(v values, pr prober, g *graph.Graph) error {
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		return err
	}
	d, err := pr.time(func() error {
		_, err := graph.ReadBinary(bytes.NewReader(bin.Bytes()))
		return err
	})
	if err != nil {
		return fmt.Errorf("graph.ReadBinary: %w", err)
	}
	v["graph.load_bin_s"] = d

	// One InNeighbors pass over every vertex: the memory-bound floor of a
	// dense compute phase.
	d, _ = pr.time(func() error {
		var sum uint64
		for u := 0; u < g.NumVertices(); u++ {
			for _, n := range g.InNeighbors(graph.ID(u)) {
				sum += uint64(n)
			}
		}
		sink += float64(sum)
		return nil
	})
	v["graph.csr_scan_ns_per_edge"] = d * 1e9 / float64(g.NumEdges())

	const msgs = 1 << 20
	d, err = pr.time(func() error {
		var codec graph.Float64Codec
		buf := make([]byte, 0, 16)
		var sum float64
		for i := 0; i < msgs; i++ {
			buf = codec.Append(buf[:0], float64(i))
			x, _, err := codec.Decode(buf)
			if err != nil {
				return err
			}
			sum += x
		}
		sink += sum
		return nil
	})
	if err != nil {
		return fmt.Errorf("graph.Float64Codec: %w", err)
	}
	v["graph.codec_f64_ns_per_msg"] = d * 1e9 / msgs
	return nil
}

func probePartition(v values, pr prober, g *graph.Graph, p parted) error {
	k := workers.Workers()
	for name, part := range map[string]partition.Partitioner{
		"partition.hash_s":       partition.Hash{},
		"partition.multilevel_s": partition.Multilevel{},
	} {
		d, err := pr.time(func() error {
			_, err := part.Partition(g, k)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = d
	}
	d, err := pr.time(func() error {
		_, err := partition.NewLayout(p.assign, g.NumVertices())
		return err
	})
	if err != nil {
		return fmt.Errorf("partition.NewLayout: %w", err)
	}
	v["partition.layout_s"] = d
	v["partition.edge_cut_frac"] = float64(p.assign.EdgeCut(g)) / float64(g.NumEdges())
	v["partition.replication_factor"] = p.assign.ReplicationFactor(g)
	return nil
}

// exchange drives a 2-endpoint transport directly: per round each endpoint
// sends one batch to the other, both finish the round, both drain. Every
// message sent must come out.
func exchange(tr transport.Interface[float64], rounds int, batches [2][]float64) error {
	got := 0
	for r := 0; r < rounds; r++ {
		for from := range batches {
			tr.Send(from, 1-from, batches[from])
		}
		for from := range batches {
			tr.FinishRound(from)
		}
		for to := range batches {
			for _, b := range tr.Drain(to) {
				got += len(b)
			}
		}
	}
	if want := rounds * (len(batches[0]) + len(batches[1])); got != want {
		return fmt.Errorf("delivered %d of %d messages (transport error: %v)", got, want, tr.Err())
	}
	return tr.Err()
}

// exchangeOn opens a 2-endpoint transport, finds the fastest of the prober's
// repetitions of `rounds` exchanges of the given batches, and returns its time
// together with the traffic counters of all repetitions.
func exchangeOn(pr prober, net transport.Network, mode transport.QueueMode,
	rounds int, batches [2][]float64) (float64, transport.Snapshot, error) {

	tr, err := transport.New[float64](net, 2, mode, nil, graph.Float64Codec{})
	if err != nil {
		return 0, transport.Snapshot{}, err
	}
	d, err := pr.time(func() error { return exchange(tr, rounds, batches) })
	st := tr.Stats().Snapshot()
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	return d, st, err
}

func probeTransport(v values, pr prober) error {
	var full [2][]float64
	for i := range full {
		full[i] = make([]float64, 4096)
		for m := range full[i] {
			full[i][m] = float64(m)
		}
	}
	for _, c := range []struct {
		name   string
		net    transport.Network
		mode   transport.QueueMode
		rounds int
	}{
		{"transport.local_ns_per_msg", transport.InProcess, transport.PerSenderQueue, 256},
		{"transport.local_gq_ns_per_msg", transport.InProcess, transport.GlobalQueue, 256},
		{"transport.tcp_ns_per_msg", transport.TCPLoopback, transport.PerSenderQueue, 64},
	} {
		d, st, err := exchangeOn(pr, c.net, c.mode, c.rounds, full)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		v[c.name] = d * 1e9 / float64(c.rounds*2*len(full[0]))
		if c.net == transport.TCPLoopback {
			v["transport.tcp_wire_b_per_msg"] = float64(st.WireBytes) / float64(st.Messages)
		}
	}

	// No payload: what a round costs in markers and wake-ups alone.
	const emptyRounds = 1000
	d, _, err := exchangeOn(pr, transport.TCPLoopback, transport.PerSenderQueue, emptyRounds, [2][]float64{})
	if err != nil {
		return fmt.Errorf("transport.tcp_empty_round_us: %w", err)
	}
	v["transport.tcp_empty_round_us"] = d * 1e6 / emptyRounds

	d, err = pr.time(func() error {
		tr, err := transport.New[float64](transport.TCPLoopback, 2, transport.PerSenderQueue, nil, graph.Float64Codec{})
		if err != nil {
			return err
		}
		return tr.Close()
	})
	if err != nil {
		return fmt.Errorf("transport.tcp_connect_ms: %w", err)
	}
	v["transport.tcp_connect_ms"] = d * 1e3

	// Table 3's two extremes: gob through one locked queue against direct
	// writes into disjoint ranges.
	const msgs = 1 << 18
	for name, micro := range map[string]func(total, senders int) transport.MicroResult{
		"transport.micro_hama_ns_per_msg":    transport.MicroHama,
		"transport.micro_cyclops_ns_per_msg": transport.MicroCyclops,
	} {
		d, err := pr.best(func() (float64, error) {
			r := micro(msgs, 2)
			return r.Total.Seconds(), transport.VerifyMicro(r)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = d * 1e9 / msgs
	}
	return nil
}

// probeReferences times the sequential references, which double as the plain
// single-threaded baseline: exec_s over these is the parallel efficiency.
func probeReferences(v values, pr prober, g *graph.Graph, iters int) error {
	d, _ := pr.time(func() error { sink += algorithms.PageRankRef(g, iters)[0]; return nil })
	v["algorithms.pagerank_ref_s"] = d
	d, _ = pr.time(func() error { sink += algorithms.SSSPRef(g, 0)[0]; return nil })
	v["algorithms.sssp_ref_s"] = d
	return nil
}

// probeRecorder prices the full flight recorder: the in-process cyclops Run
// with an obs.Recorder as Hooks over the same Run with none, reps of the two
// alternating.
func probeRecorder(v values, pr prober, j job, p parted, want []float64, tol float64, outDir string) error {
	dir := filepath.Join(outDir, fmt.Sprintf("flight-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rec, err := obs.NewRecorder(dir)
	if err != nil {
		return fmt.Errorf("obs.NewRecorder: %w", err)
	}
	recorded := j
	recorded.hooks = rec

	var with, without []float64
	_, err = pr.best(func() (float64, error) {
		a, err := execRep(j, layerCyclops, p, want, tol, nil, -1, 0)
		if err != nil {
			return 0, err
		}
		b, err := execRep(recorded, layerCyclops, p, want, tol, nil, -1, 0)
		if err != nil {
			return 0, err
		}
		without, with = append(without, a.run), append(with, b.run)
		return a.run + a.construct + b.run + b.construct, rec.Err()
	})
	if err != nil {
		return fmt.Errorf("obs.Recorder: %w", err)
	}
	v["obs.recorder_overhead_frac"] = best(with)/best(without) - 1
	return nil
}

// probeCheckpoint saves and loads a freshly built cyclops engine's Snapshot.
// The files go under the benchmark's own output directory, not os.TempDir():
// a run writes nothing outside its checkout.
func probeCheckpoint(v values, pr prober, j job, p parted, outDir string) error {
	inst, err := j.construct(layerCyclops, p)
	if err != nil {
		return fmt.Errorf("cyclops.New: %w", err)
	}
	defer inst.Close()
	state := inst.(cyclopsInstance).Snapshot()

	dir := filepath.Join(outDir, fmt.Sprintf("checkpoint-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	type snapshot = cyclops.State[float64, float64]
	save, err := pr.time(func() error { return checkpoint.Save(dir, 0, state) })
	if err != nil {
		return err
	}
	load, err := pr.time(func() error {
		s, err := checkpoint.Load[snapshot](dir, 0)
		if err == nil && len(s.Values) != len(state.Values) {
			err = fmt.Errorf("checkpoint: loaded %d values, saved %d", len(s.Values), len(state.Values))
		}
		return err
	})
	if err != nil {
		return err
	}
	v["checkpoint.save_ms"] = save * 1e3
	v["checkpoint.load_ms"] = load * 1e3
	return nil
}
