package gas

// Fault-injection test for the mirror-coherence auditor (Config.Audit). The
// subtlety: every applied master re-pushes its value to its mirrors each
// superstep, so corrupting the mirror of an *active* vertex self-heals
// before the auditor looks. The divergence must therefore be planted on the
// mirror of a master that has gone permanently inactive — exactly the stale
// state a real lost-push bug would leave behind.

import (
	"errors"
	"sync"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
)

// stepProg: vertex 0 computes once and never activates anyone; vertices 1
// and 2 keep each other active forever and take a new value every superstep.
type stepProg struct{}

func (stepProg) Init(id graph.ID, _ *graph.Graph) (float64, bool) { return float64(id), true }

func (p stepProg) Gather(vals []float64, srcs []int32, _ []float64) float64 {
	sum := vals[srcs[0]]
	for _, s := range srcs[1:] {
		sum = p.Sum(sum, vals[s])
	}
	return sum
}

func (stepProg) Sum(a, b float64) float64 { return a + b }

func (stepProg) Apply(id graph.ID, old float64, _ float64, _ bool, step int) (float64, bool) {
	if id == 0 {
		return old, false
	}
	return float64(step*10) + float64(id), true
}

// auditCutGraph: vertex 0 (no in-edges, so nothing ever reactivates it)
// feeds 1 and 2; the 1↔2 cycle keeps the run alive.
func auditCutGraph() *graph.Graph {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	return b.MustBuild()
}

// fixedCut pins each edge (in g.Edges() order) to a worker, so the tests
// know the exact master/mirror layout.
type fixedCut struct{ of []int }

func (fixedCut) Name() string { return "fixed-cut" }

func (c fixedCut) PartitionEdges(*graph.Graph, int) []int {
	return append([]int(nil), c.of...)
}

// mirrorLog keeps every record's violations.
type mirrorLog struct {
	obs.Nop
	mu  sync.Mutex
	got []obs.Violation
}

func (l *mirrorLog) OnSuperstep(rec *obs.StepRecord) {
	l.mu.Lock()
	l.got = append(l.got, rec.Violations...)
	l.mu.Unlock()
}

func (l *mirrorLog) violations() []obs.Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Violation(nil), l.got...)
}

// newAuditEngine places edge 0→2 alone on worker 1 (all others on worker 0),
// so vertices 0 and 2 get mirrors on worker 1 while every master lives on
// worker 0. Vertex 2's mirror is refreshed by pushes each superstep; vertex
// 0's master goes inactive after superstep 0 and its mirror just holds.
func newAuditEngine(t *testing.T, hooks obs.Hooks, onStep func(int, *Engine[float64, float64])) *Engine[float64, float64] {
	t.Helper()
	e, err := New[float64, float64](auditCutGraph(), stepProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 1),
		Partitioner:   fixedCut{of: []int{0, 1, 0, 0}},
		MaxSupersteps: 5,
		Audit:         true,
		Hooks:         hooks,
		OnStep:        onStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.mirrorsPerW[1] != 2 {
		t.Fatalf("layout drifted: %d mirrors on worker 1, want 2 (vertices 0 and 2)", e.mirrorsPerW[1])
	}
	return e
}

func TestAuditCleanRun(t *testing.T) {
	log := &mirrorLog{}
	e := newAuditEngine(t, log, nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("clean audited run failed: %v", err)
	}
	if vs := log.violations(); len(vs) != 0 {
		t.Fatalf("violations on a clean run: %v", vs)
	}
}

func TestAuditCatchesMirrorDivergence(t *testing.T) {
	log := &mirrorLog{}
	var e *Engine[float64, float64]
	e = newAuditEngine(t, log, func(step int, _ *Engine[float64, float64]) {
		if step == 1 {
			// Corrupt vertex 0's mirror cache on worker 1. Its master is
			// inactive and will never push again, so nothing repairs the
			// divergence — only the auditor can see it.
			for s := range e.ws[1].verts {
				if e.ws[1].verts[s].id == 0 {
					e.ws[1].vals[s] = 999
				}
			}
		}
	})
	_, err := e.Run()

	var audit *obs.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("run error = %v, want *obs.AuditError", err)
	}
	v := audit.Violations[0]
	if v.Kind != obs.ViolationMirrorDivergence || v.Vertex != 0 || v.Worker != 1 || v.Step != 2 {
		t.Fatalf("violation = %+v, want mirror-divergence of vertex 0 at worker 1, step 2", v)
	}
	if len(log.violations()) == 0 {
		t.Fatal("no record carried a violation")
	}
}
