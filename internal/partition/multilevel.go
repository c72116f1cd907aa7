package partition

import (
	"fmt"
	"math/rand"

	"cyclops/internal/graph"
)

// Multilevel is the Metis-like k-way partitioner of §4.2: it coarsens the
// graph by heavy-edge matching, partitions the coarsest graph by greedy
// region growing, and refines the projection at every level with boundary
// Fiduccia–Mattheyses passes. Like Metis it minimises edge-cut while keeping
// vertex counts balanced within Imbalance.
type Multilevel struct {
	// Seed makes the randomised matching and refinement deterministic.
	Seed int64
	// Imbalance is the allowed max-partition overshoot (default 1.05).
	Imbalance float64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices (default 30·k, floor 128).
	CoarsenTo int
	// RefinePasses bounds FM passes per level (default 4).
	RefinePasses int
}

// Name implements Partitioner.
func (Multilevel) Name() string { return "metis" }

// ugraph is the internal undirected weighted representation used during
// coarsening. Edge weights count merged multi-edges; vertex weights count
// collapsed fine vertices so balance refers to original vertices.
type ugraph struct {
	xadj []int32
	adj  []int32
	ewgt []int64
	vwgt []int64
}

func (u *ugraph) n() int { return len(u.xadj) - 1 }

// toUndirected symmetrises the directed input in one pass: v's row merges its
// out-row (sorted by destination) and in-row (sorted by source), one entry per
// neighbour, weighted by the edges either way; self-loops never affect cut.
func toUndirected(g *graph.Graph) *ugraph {
	n := g.NumVertices()
	ug := &ugraph{xadj: make([]int32, n+1), vwgt: make([]int64, n),
		adj: make([]int32, 0, 2*g.NumEdges()), ewgt: make([]int64, 0, 2*g.NumEdges())}
	for v := range n {
		ug.vwgt[v] = 1
		out, in := g.OutNeighbors(graph.ID(v)), g.InNeighbors(graph.ID(v))
		for i, j := 0, 0; i < len(out) || j < len(in); {
			var w graph.ID
			if j == len(in) || i < len(out) && out[i] <= in[j] {
				w = out[i]
			} else {
				w = in[j]
			}
			i0, j0 := i, j
			for i < len(out) && out[i] == w {
				i++
			}
			for j < len(in) && in[j] == w {
				j++
			}
			if int(w) != v {
				ug.adj = append(ug.adj, int32(w))
				ug.ewgt = append(ug.ewgt, int64(i-i0+j-j0))
			}
		}
		ug.xadj[v+1] = int32(len(ug.adj))
	}
	return ug
}

// permInto draws exactly what rng.Perm(n) draws, into buf[:n].
func permInto(rng *rand.Rand, n int, buf []int32) []int32 {
	m := buf[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i], m[j] = m[j], int32(i)
	}
	return m
}

// coarsen performs one heavy-edge-matching round, visiting vertices in an
// order drawn into perm. It returns the coarse graph and the fine→coarse
// vertex map.
func coarsen(u *ugraph, rng *rand.Rand, perm []int32) (*ugraph, []int32) {
	n := u.n()
	order := permInto(rng, n, perm)
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	cmap := make([]int32, n)
	members := make([][2]int32, 0, n) // a coarse vertex's fine ones, ascending; -1 if single
	coarse := int32(0)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for i := u.xadj[v]; i < u.xadj[v+1]; i++ {
			nb := u.adj[i]
			if match[nb] == -1 && nb != v && u.ewgt[i] > bestW {
				best, bestW = nb, u.ewgt[i]
			}
		}
		if best == -1 {
			match[v] = v
			cmap[v] = coarse
			members = append(members, [2]int32{v, -1})
		} else {
			match[v], match[best] = best, v
			cmap[v], cmap[best] = coarse, coarse
			members = append(members, [2]int32{min(v, best), max(v, best)})
		}
		coarse++
	}
	// Build the coarse graph by aggregating fine adjacency through cmap,
	// using a stamp array so each coarse vertex's neighbor set is merged in
	// O(degree). Merging never adds entries: the fine sizes bound the coarse.
	cg := &ugraph{xadj: make([]int32, coarse+1), vwgt: make([]int64, coarse),
		adj: make([]int32, 0, len(u.adj)), ewgt: make([]int64, 0, len(u.adj))}
	stamp := make([]int32, coarse) // stamp[nc] == c+1: row c holds nc, at slot[nc]
	slot := make([]int32, coarse)
	for c := int32(0); c < coarse; c++ {
		for _, fv := range members[c] {
			if fv == -1 {
				continue
			}
			cg.vwgt[c] += u.vwgt[fv]
			for i := u.xadj[fv]; i < u.xadj[fv+1]; i++ {
				nc := cmap[u.adj[i]]
				if nc == c {
					continue
				}
				if stamp[nc] != c+1 {
					stamp[nc] = c + 1
					slot[nc] = int32(len(cg.adj))
					cg.adj = append(cg.adj, nc)
					cg.ewgt = append(cg.ewgt, u.ewgt[i])
				} else {
					cg.ewgt[slot[nc]] += u.ewgt[i]
				}
			}
		}
		cg.xadj[c+1] = int32(len(cg.adj))
	}
	return cg, cmap
}

// growInitial produces a k-way partition of the coarsest graph by greedy
// region growing: BFS from a fresh seed until the region reaches the target
// weight, then start the next partition, seeding in an order drawn into perm.
func growInitial(u *ugraph, k int, rng *rand.Rand, perm []int32) []int32 {
	n := u.n()
	part := make([]int32, n)
	for i := range part {
		part[i] = -1
	}
	var totalW int64
	for _, w := range u.vwgt {
		totalW += w
	}
	target := totalW / int64(k)
	if target < 1 {
		target = 1
	}
	order := permInto(rng, n, perm)
	next := 0
	queue := make([]int32, 0, n)
	for p := 0; p < k; p++ {
		var weight int64
		queue = queue[:0]
		for weight < target {
			if len(queue) == 0 {
				// Find a fresh seed.
				for next < n && part[order[next]] != -1 {
					next++
				}
				if next == n {
					break
				}
				queue = append(queue, order[next])
				part[order[next]] = int32(p)
				weight += u.vwgt[order[next]]
			}
			v := queue[0]
			queue = queue[1:]
			for i := u.xadj[v]; i < u.xadj[v+1]; i++ {
				nb := u.adj[i]
				if part[nb] == -1 && weight < target {
					part[nb] = int32(p)
					weight += u.vwgt[nb]
					queue = append(queue, nb)
				}
			}
		}
	}
	// Any leftovers go to the lightest partition.
	weights := make([]int64, k)
	for v := 0; v < n; v++ {
		if part[v] >= 0 {
			weights[part[v]] += u.vwgt[v]
		}
	}
	for v := 0; v < n; v++ {
		if part[v] == -1 {
			lightest := 0
			for p := 1; p < k; p++ {
				if weights[p] < weights[lightest] {
					lightest = p
				}
			}
			part[v] = int32(lightest)
			weights[lightest] += u.vwgt[v]
		}
	}
	return part
}

// refine runs boundary FM passes: each pass visits vertices in an order drawn
// into perm and moves a vertex to the neighboring partition with the highest
// positive cut gain, subject to the balance bound. It skips v when ext[v], the
// count of its neighbours outside part[v], is 0: no gain is positive. It
// returns ext.
func refine(u *ugraph, part []int32, k int, maxWeight int64, passes int, rng *rand.Rand, perm []int32) []int32 {
	n := u.n()
	weights := make([]int64, k)
	ext := make([]int32, n)
	for v := 0; v < n; v++ {
		weights[part[v]] += u.vwgt[v]
		for _, nb := range u.adj[u.xadj[v]:u.xadj[v+1]] {
			if part[nb] != part[v] {
				ext[v]++
			}
		}
	}
	conn := make([]int64, k) // connection weight to each partition
	touched := make([]int32, 0, 8)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for _, v := range permInto(rng, n, perm) {
			if ext[v] == 0 {
				continue
			}
			home := part[v]
			touched = touched[:0]
			for i := u.xadj[v]; i < u.xadj[v+1]; i++ {
				p := part[u.adj[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += u.ewgt[i]
			}
			best, bestGain := home, int64(0)
			for _, p := range touched {
				if p == home {
					continue
				}
				gain := conn[p] - conn[home]
				if gain > bestGain && weights[p]+u.vwgt[v] <= maxWeight {
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best != home {
				weights[home] -= u.vwgt[v]
				weights[best] += u.vwgt[v]
				part[v] = best
				ext[v] = 0
				for _, nb := range u.adj[u.xadj[v]:u.xadj[v+1]] {
					switch part[nb] {
					case home:
						ext[nb]++
						ext[v]++
					case best:
						ext[nb]--
					default:
						ext[v]++
					}
				}
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return ext
}

// Partition implements Partitioner.
func (m Multilevel) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	n := g.NumVertices()
	if k == 1 || n == 0 {
		return &Assignment{K: k, Of: make([]int, n)}, nil
	}
	imbalance := m.Imbalance
	if imbalance <= 1 {
		imbalance = 1.05
	}
	coarsenTo := m.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = max(30*k, 128)
	}
	passes := m.RefinePasses
	if passes <= 0 {
		passes = 4
	}
	rng := rand.New(rand.NewSource(m.Seed))
	perm := make([]int32, n) // every level's permutations, drawn in turn

	// Coarsening phase.
	levels := []*ugraph{toUndirected(g)}
	var cmaps [][]int32
	for levels[len(levels)-1].n() > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng, perm)
		if coarse.n() > cur.n()*9/10 {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		levels = append(levels, coarse)
		cmaps = append(cmaps, cmap)
	}

	// Initial partition at the coarsest level.
	coarsest := levels[len(levels)-1]
	part := growInitial(coarsest, k, rng, perm)
	maxWeight := int64(imbalance * float64(n) / float64(k))
	if maxWeight < 1 {
		maxWeight = 1
	}
	refine(coarsest, part, k, maxWeight, passes, rng, perm)

	// Uncoarsening with refinement at every level.
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := cmaps[lvl]
		finePart := make([]int32, fine.n())
		for v := range finePart {
			finePart[v] = part[cmap[v]]
		}
		refine(fine, finePart, k, maxWeight, passes, rng, perm)
		part = finePart
	}

	of := make([]int, n)
	for v := range of {
		of[v] = int(part[v])
	}
	a := &Assignment{K: k, Of: of}
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return a, nil
}
