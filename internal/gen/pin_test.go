package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/graph"
)

// csrHash digests a graph's whole CSR: both adjacency directions, row by row,
// neighbour ids and (optionally) weight bits in stored order.
func csrHash(g *graph.Graph, weights bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.NumVertices()))
	for v := graph.ID(0); int(v) < g.NumVertices(); v++ {
		for _, dir := range []struct {
			ns []graph.ID
			ws []float64
		}{{g.OutNeighbors(v), g.OutWeights(v)}, {g.InNeighbors(v), g.InWeights(v)}} {
			put(uint64(len(dir.ns)))
			for i, u := range dir.ns {
				put(uint64(u))
				if weights {
					put(math.Float64bits(dir.ws[i]))
				}
			}
		}
	}
	return h.Sum64()
}

// TestDatasetCSRsPinned holds every dataset's CSR to the digest recorded
// before Builder.Build traded its comparison sort for two stable counting
// passes: the committed flight-record baselines and every EXPERIMENTS.md
// figure were produced on exactly these graphs. syn-gl is pinned on topology
// only — its generator draws duplicate (user, item) ratings, Dedup now keeps
// the first one drawn (see TestBipartiteKeepsFirstRating), so its weights are
// the one thing that sort change was allowed to move.
func TestDatasetCSRsPinned(t *testing.T) {
	for _, pin := range []struct {
		name    string
		scale   float64
		weights bool
		want    uint64
	}{
		{"amazon", 0.05, true, 0x4dc7b289ac120ce9},
		{"amazon", 0.25, true, 0xa7b7b08e75a0c43d},
		{"dblp", 0.05, true, 0xa666dfbd905b219d},
		{"dblp", 0.25, true, 0xab5af3c4340d5036},
		{"gweb", 0.05, true, 0x96427e832ddc3414},
		{"gweb", 0.25, true, 0xd7c424ae9e9636ec},
		{"ljournal", 0.05, true, 0x326ec48d6991c8b0},
		{"ljournal", 0.25, true, 0x10e459de6ff1ba56},
		{"roadca", 0.05, true, 0xf9979a5bfa5004f},
		{"roadca", 0.25, true, 0x502859669cc68fb9},
		{"wiki", 0.05, true, 0x396ebf1ca3d84f26},
		{"wiki", 0.25, true, 0xaaf0c086cc482114},
		{"syn-gl", 0.05, false, 0xaaa38ed7bf13f55},
		{"syn-gl", 0.25, false, 0xd29b6e63badf19e5},
	} {
		g, _, err := Dataset(pin.name, pin.scale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := csrHash(g, pin.weights); got != pin.want {
			t.Errorf("%s@%g: CSR digest %#x, pinned %#x", pin.name, pin.scale, got, pin.want)
		}
	}
}

// TestBipartiteKeepsFirstRating: when a user draws the same item twice, the
// rating that survives Dedup is the first one drawn, in both directions.
func TestBipartiteKeepsFirstRating(t *testing.T) {
	const users, items, perUser, seed = 40, 6, 12, 3 // 12 draws over 6 items: every user repeats one
	g := Bipartite(users, items, perUser, seed)
	first := map[[2]graph.ID]float64{}
	b := graph.NewBuilder(users + items)
	record := func(src, dst graph.ID, w float64) {
		if _, seen := first[[2]graph.ID{src, dst}]; !seen {
			first[[2]graph.ID{src, dst}] = w
			b.AddWeightedEdge(src, dst, w)
		}
	}
	// Replay the generator's draws into a builder that never sees a duplicate.
	rng := rand.New(rand.NewSource(seed))
	for u := graph.ID(0); u < users; u++ {
		for i := 0; i < perUser; i++ {
			item := graph.ID(users + rng.Intn(items))
			rating := float64(rng.Intn(5) + 1)
			record(u, item, rating)
			record(item, u, rating)
		}
	}
	if len(first) == users*perUser*2 {
		t.Fatal("the draw produced no duplicate rating; the test exercises nothing")
	}
	if want := b.MustBuild(); csrHash(g, true) != csrHash(want, true) {
		t.Fatalf("Bipartite kept a later rating of some duplicate pair: %d edges vs %d", g.NumEdges(), want.NumEdges())
	}
}
