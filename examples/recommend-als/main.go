// Movie recommendation with Alternating Least Squares on the Cyclops
// engine — the paper's ALS workload (§6.1, after Zhou et al.'s Netflix
// system). Users and items live on either side of a bipartite rating graph;
// activation alternates the sides between supersteps, and each update pulls
// the other side's latent vectors straight from the immutable view.
//
//	go run ./examples/recommend-als
package main

import (
	"fmt"
	"log"
	"sort"

	"cyclops/internal/algorithms"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/gen"
	"cyclops/internal/graph"
	"cyclops/internal/linalg"
)

const (
	users  = 2000
	items  = 200
	rated  = 20
	sweeps = 5
)

func main() {
	g := gen.Bipartite(users, items, rated, 99)
	fmt.Printf("rating graph: %d users × %d items, %d ratings\n\n",
		users, items, g.NumEdges()/2)

	cfg := algorithms.ALSConfig{Users: users, D: 8, Lambda: 0.05, Sweeps: sweeps}
	engine, err := cyclops.New[[]float64, []float64](g, algorithms.ALSCyclops{Cfg: cfg},
		cyclops.Config[[]float64, []float64]{
			Cluster:       cluster.MT(4, 4, 2),
			MaxSupersteps: cfg.TotalSupersteps(),
		})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := engine.Run()
	if err != nil {
		log.Fatal(err)
	}
	vecs := engine.Values()
	fmt.Println("run:", trace)
	fmt.Printf("reconstruction RMSE after %d sweeps: %.3f (ratings are 1–5)\n\n",
		sweeps, algorithms.RMSE(g, users, vecs))

	// Recommend unseen items for one user: highest predicted rating among
	// items they have not rated.
	const who graph.ID = 17
	seen := map[graph.ID]bool{}
	for _, item := range g.OutNeighbors(who) {
		seen[item] = true
	}
	type rec struct {
		item graph.ID
		pred float64
	}
	var recs []rec
	for item := users; item < users+items; item++ {
		id := graph.ID(item)
		if seen[id] {
			continue
		}
		recs = append(recs, rec{id, linalg.Dot(vecs[who], vecs[id])})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].pred > recs[j].pred })
	fmt.Printf("top recommendations for user %d (of %d unseen items):\n", who, len(recs))
	for _, r := range recs[:5] {
		fmt.Printf("  item %-6d predicted rating %.2f\n", r.item-users, r.pred)
	}
}
