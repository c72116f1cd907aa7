// Fault tolerance (§3.6 of the paper): checkpoint a PageRank job at
// barriers, "crash" the cluster mid-run, and recover from the last
// checkpoint into a fresh engine. Cyclops checkpoints exclude replicas and
// in-flight messages — replicas are re-synchronised from their masters at
// restore time — so the snapshot is smaller than a Pregel checkpoint, and
// recovery still reproduces the uninterrupted run bit for bit. The engine
// owns its checkpoint directory: it saves a step-0 baseline when the run
// starts and then every CheckpointEvery supersteps, so the printed list of
// checkpoints starts at superstep 0.
//
//	go run ./examples/fault-tolerance
package main

import (
	"fmt"
	"log"
	"os"

	"cyclops/internal/algorithms"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
)

const totalSupersteps = 20

func main() {
	g, _, err := gen.Dataset("amazon", 0.3, 11)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "cyclops-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	newEngine := func(maxSteps int, dir string, ckptEvery int) *cyclops.Engine[float64, float64] {
		e, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclops.Config[float64, float64]{
				Cluster:         cluster.Flat(3, 2),
				MaxSupersteps:   maxSteps,
				CheckpointDir:   dir,
				CheckpointEvery: ckptEvery,
			})
		if err != nil {
			log.Fatal(err)
		}
		return e
	}

	// Ground truth: an uninterrupted run.
	truth := newEngine(totalSupersteps, "", 0)
	if _, err := truth.Run(); err != nil {
		log.Fatal(err)
	}

	// The "production" run checkpoints into dir every 5 supersteps (after its
	// step-0 baseline) and dies at 13.
	doomed := newEngine(13, dir, 5)
	if _, err := doomed.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster crashed at superstep 13 💥")

	steps, err := checkpoint.Steps(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoints on stable storage: %d files, supersteps %v\n", len(steps), steps)

	// Recovery: fresh engine, restore the latest checkpoint, continue.
	state, at, err := checkpoint.LoadLatest[cyclops.State[float64, float64]](dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovering from superstep %d (replicas will re-sync from masters)\n", at)
	recovered := newEngine(totalSupersteps, "", 0)
	if err := recovered.Restore(state); err != nil {
		log.Fatal(err)
	}
	if _, err := recovered.Run(); err != nil {
		log.Fatal(err)
	}

	// Verify bit-identical recovery.
	want, got := truth.Values(), recovered.Values()
	for v := range want {
		if want[v] != got[v] {
			log.Fatalf("vertex %d: %g after recovery, want %g", v, got[v], want[v])
		}
	}
	fmt.Printf("recovered run matches the uninterrupted run on all %d vertices ✓\n", len(want))
}
