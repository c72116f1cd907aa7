package algorithms

import (
	"math"

	"cyclops/internal/bsp"
	"cyclops/internal/cyclops"
	"cyclops/internal/graph"
	"cyclops/internal/linalg"
)

// Alternating Least Squares (§6.1, after Zhou et al.): the bipartite rating
// graph connects users [0, Users) with items [Users, |V|); each rating is an
// edge weight. A sweep solves the regularised normal equations for one side
// against the other's fixed latent vectors. On the graph engines the two
// sides alternate by activation: users update on even supersteps, items on
// odd ones.

// ALSConfig holds the shared hyper-parameters.
type ALSConfig struct {
	// Users is the number of user vertices (ids below Users are users).
	Users int
	// D is the latent dimension.
	D int
	// Lambda is the ridge regularisation weight.
	Lambda float64
	// Sweeps is the number of (user update, item update) pairs.
	Sweeps int
}

// TotalSupersteps is the Cyclops superstep count for Sweeps sweeps; BSP
// needs one extra seed superstep.
func (c ALSConfig) TotalSupersteps() int { return 2 * c.Sweeps }

// InitVec returns vertex id's deterministic pseudo-random initial latent
// vector — splitmix64-based so every engine (and replica seed) agrees.
func InitVec(id graph.ID, d int) []float64 {
	v := make([]float64, d)
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range v {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v[i] = 0.1 + 0.8*float64(z>>11)/float64(1<<53)
	}
	return v
}

// solveSide computes one vertex's new latent vector from its neighbors'
// vectors and the connecting ratings: (Σ qqᵀ + λI) w = Σ r·q.
func solveSide(d int, lambda float64, count int, neighbor func(i int) []float64, rating func(i int) float64) []float64 {
	a := make([]float64, d*d)
	b := make([]float64, d)
	for i := 0; i < count; i++ {
		q := neighbor(i)
		linalg.AddOuter(a, q)
		linalg.AddScaled(b, q, rating(i))
	}
	linalg.AddDiagonal(a, d, lambda)
	x, err := linalg.CholeskySolve(a, b)
	if err != nil {
		// λI keeps the system SPD for any rating data; reaching here means
		// NaNs in the inputs, which is a programming error worth surfacing.
		panic("algorithms: ALS normal equations not SPD: " + err.Error())
	}
	return x
}

// ALSRef runs the alternation sequentially.
func ALSRef(g *graph.Graph, cfg ALSConfig) [][]float64 {
	n := g.NumVertices()
	vecs := make([][]float64, n)
	for v := range vecs {
		vecs[v] = InitVec(graph.ID(v), cfg.D)
	}
	update := func(v int) {
		ins := g.InNeighbors(graph.ID(v))
		if len(ins) == 0 {
			return
		}
		ws := g.InWeights(graph.ID(v))
		vecs[v] = solveSide(cfg.D, cfg.Lambda, len(ins),
			func(i int) []float64 { return vecs[ins[i]] },
			func(i int) float64 { return ws[i] })
	}
	for s := 0; s < cfg.Sweeps; s++ {
		// Users read item vectors; snapshot semantics match the engines'
		// superstep views because items only change in the second half.
		for v := 0; v < cfg.Users; v++ {
			update(v)
		}
		for v := cfg.Users; v < n; v++ {
			update(v)
		}
	}
	return vecs
}

// RMSE reports the root-mean-square rating reconstruction error of latent
// vectors over all user→item edges.
func RMSE(g *graph.Graph, users int, vecs [][]float64) float64 {
	var se float64
	count := 0
	for u := 0; u < users; u++ {
		ns := g.OutNeighbors(graph.ID(u))
		ws := g.OutWeights(graph.ID(u))
		for i, item := range ns {
			pred := linalg.Dot(vecs[u], vecs[item])
			d := pred - ws[i]
			se += d * d
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return math.Sqrt(se / float64(count))
}

// ALSCyclops alternates by activation: users (active at Init) update on even
// supersteps and activate their items; items update on odd supersteps and
// activate their users.
type ALSCyclops struct {
	Cfg ALSConfig
}

// Init implements cyclops.Program.
func (p ALSCyclops) Init(id graph.ID, _ *graph.Graph) ([]float64, []float64, bool) {
	v := InitVec(id, p.Cfg.D)
	return v, v, int(id) < p.Cfg.Users
}

// Compute implements cyclops.Program.
func (p ALSCyclops) Compute(ctx *cyclops.Context[[]float64, []float64]) {
	view, srcs, weights := ctx.In()
	if len(srcs) == 0 {
		return
	}
	vec := solveSide(p.Cfg.D, p.Cfg.Lambda, len(srcs),
		func(i int) []float64 { return view[srcs[i]] },
		func(i int) float64 { return weights[i] })
	ctx.SetValue(vec)
	ctx.Publish(vec, ctx.Superstep()+1 < p.Cfg.TotalSupersteps())
}

// ALSMsg is the BSP message: a neighbor's latent vector plus the rating on
// the connecting edge (BSP must ship the rating because the receiver cannot
// see edge metadata of in-edges).
type ALSMsg struct {
	Vec    []float64
	Rating float64
}

// ALSBSP is the message-passing formulation: superstep 0 seeds item vectors;
// thereafter whichever side received vectors solves and replies.
type ALSBSP struct {
	Cfg ALSConfig
}

// Init implements bsp.Program.
func (p ALSBSP) Init(id graph.ID, _ *graph.Graph) []float64 {
	return InitVec(id, p.Cfg.D)
}

func (p ALSBSP) send(ctx *bsp.Context[[]float64, ALSMsg], vec []float64) {
	ns := ctx.OutNeighbors()
	ws := ctx.OutWeights()
	for i := range ns {
		ctx.SendTo(ns[i], ALSMsg{Vec: vec, Rating: ws[i]})
	}
}

// Compute implements bsp.Program.
func (p ALSBSP) Compute(ctx *bsp.Context[[]float64, ALSMsg], msgs []ALSMsg) {
	isItem := int(ctx.Vertex()) >= p.Cfg.Users
	if ctx.Superstep() == 0 {
		if isItem {
			p.send(ctx, ctx.Value())
		}
		ctx.VoteToHalt()
		return
	}
	if len(msgs) > 0 {
		vec := solveSide(p.Cfg.D, p.Cfg.Lambda, len(msgs),
			func(i int) []float64 { return msgs[i].Vec },
			func(i int) float64 { return msgs[i].Rating })
		ctx.SetValue(vec)
		if ctx.Superstep() < p.Cfg.TotalSupersteps() {
			p.send(ctx, vec)
		}
	}
	ctx.VoteToHalt()
}
