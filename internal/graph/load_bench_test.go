package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// BenchmarkLoadText prices graph.Load on the text bench/ hands it: gweb@0.5
// and the 64×512 lattice, written as SNAP edge lists under a random vertex
// relabelling, and reports ns/edge. Run it with -cpu 1, as bench/ runs on one
// P (and so parses in one chunk).
func BenchmarkLoadText(b *testing.B) {
	web, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"gweb", web}, {"lattice", gen.Road(64, 512, 0, 1)}} {
		b.Run(in.name, func(b *testing.B) {
			text := relabelled(in.g, 1)
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for range b.N {
				if _, _, err := graph.Load(bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in.g.NumEdges()), "ns/edge")
		})
	}
}

// BenchmarkBuild prices build alone, on the labelled edges BenchmarkLoadText's
// loads hand it, and reports ns/edge. Run it with -cpu 1.
func BenchmarkBuild(b *testing.B) {
	web, _, err := gen.Dataset("gweb", 0.5, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"gweb", web}, {"lattice", gen.Road(64, 512, 0, 1)}} {
		b.Run(in.name, func(b *testing.B) {
			n, ends, w := graph.LabelledEdges(relabelled(in.g, 1))
			b.ResetTimer()
			for range b.N {
				if _, err := graph.Build(n, ends, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w)), "ns/edge")
		})
	}
}

// relabelled writes g as graph.Write does, but names vertex v base+perm[v],
// perm drawn from seed and base the power of ten that gives every label the
// same number of digits: the files bench/ generates.
func relabelled(g *graph.Graph, seed int64) []byte {
	n := g.NumVertices()
	base := 10
	for base < n {
		base *= 10
	}
	label := rand.New(rand.NewSource(seed)).Perm(n)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %d vertices, %d edges\n", n, g.NumEdges())
	for v := range n {
		ws := g.OutWeights(graph.ID(v))
		for i, u := range g.OutNeighbors(graph.ID(v)) {
			if ws[i] == 1 {
				fmt.Fprintf(&buf, "%d %d\n", base+label[v], base+label[u])
			} else {
				fmt.Fprintf(&buf, "%d %d %g\n", base+label[v], base+label[u], ws[i])
			}
		}
	}
	return buf.Bytes()
}
