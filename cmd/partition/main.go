// Command partition evaluates graph partitioners on a graph: edge-cut,
// balance and the Cyclops replication factor of Figure 11.
//
// Examples:
//
//	partition -dataset wiki -k 48
//	partition -graph web.txt -k 12 -algo metis
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/partition"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in, the table out,
// errors returned instead of exiting.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	var (
		dsName    = fs.String("dataset", "", "synthetic dataset name")
		graphFile = fs.String("graph", "", "edge-list file")
		scale     = fs.Float64("scale", 1.0, "dataset scale factor")
		seed      = fs.Int64("seed", 1, "random seed")
		k         = fs.Int("k", 48, "number of partitions")
		algo      = fs.String("algo", "", "only this partitioner (hash, metis, range); default all")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	partitioners := []partition.Partitioner{partition.Hash{}, partition.Multilevel{Seed: *seed}, partition.Range{}}
	if *algo != "" {
		i := slices.IndexFunc(partitioners, func(p partition.Partitioner) bool { return p.Name() == *algo })
		if i < 0 {
			return fmt.Errorf("-algo %q: want hash, metis or range", *algo)
		}
		partitioners = partitioners[i : i+1]
	}

	var g *graph.Graph
	var err error
	switch {
	case *dsName != "":
		g, _, err = gen.Dataset(*dsName, *scale, *seed)
	case *graphFile != "":
		g, _, err = graph.LoadFile(*graphFile)
	default:
		err = fmt.Errorf("one of -dataset or -graph is required")
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %s\n\n", graph.ComputeStats(g))
	fmt.Fprintf(stdout, "%-8s %10s %10s %10s %12s\n", "algo", "cut", "cut%", "balance", "replication")
	for _, p := range partitioners {
		a, err := p.Partition(g, *k)
		if err != nil {
			return err
		}
		cut := a.EdgeCut(g)
		fmt.Fprintf(stdout, "%-8s %10d %9.1f%% %10.3f %12.2f\n",
			p.Name(), cut, 100*float64(cut)/float64(g.NumEdges()),
			a.Balance(), a.ReplicationFactor(g))
	}
	return nil
}
