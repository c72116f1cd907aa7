package cyclops

// Fault-injection tests for the replica-invariant auditor (Config.Audit).
// Each test deliberately breaks one of §3.4's invariants mid-run — a replica
// desynchronised behind its master, a replica delivered two sync messages,
// a message aimed at a master slot — and asserts the auditor reports a
// structured violation and fails the run with *obs.AuditError.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/graph"
	"cyclops/internal/obs"
	"cyclops/internal/partition"
)

// pulseProg drives the audit graph: vertex 0 publishes once (superstep 0)
// and then goes permanently inactive (it has no in-edges, so nothing
// reactivates it), while the other vertices republish changing values every
// superstep and keep each other active. That leaves vertex 0's replica
// legitimately un-refreshed superstep after superstep — the state a
// desynchronisation must survive in to reach the auditor.
type pulseProg struct{}

func (pulseProg) Init(graph.ID, *graph.Graph) (float64, float64, bool) {
	return 0, 0.1, true
}

func (pulseProg) Compute(ctx *Context[float64, float64]) {
	if ctx.Vertex() == 0 {
		if ctx.Superstep() == 0 {
			ctx.Publish(0.5, true)
		}
		return
	}
	ctx.Publish(float64(ctx.Superstep())*10+float64(ctx.Vertex()), true)
}

// auditGraph: 0→2 spans the cut (replicating vertex 0 onto worker 1), and
// the 1→2→3→1 ring keeps the run alive; vertex 0 has no in-edges.
func auditGraph() *graph.Graph {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 1)
	return b.MustBuild()
}

// fixedPart pins vertices to workers so the tests know where every master
// and replica lives: vertices 0,1 on worker 0; vertices 2,3 on worker 1.
type fixedPart struct{ of []int }

func (fixedPart) Name() string { return "fixed" }

func (p fixedPart) Partition(_ *graph.Graph, k int) (*partition.Assignment, error) {
	return &partition.Assignment{K: k, Of: append([]int(nil), p.of...)}, nil
}

// violationLog keeps every record's violations.
type violationLog struct {
	obs.Nop
	mu  sync.Mutex
	got []obs.Violation
}

func (l *violationLog) OnSuperstep(rec *obs.StepRecord) {
	l.mu.Lock()
	l.got = append(l.got, rec.Violations...)
	l.mu.Unlock()
}

func (l *violationLog) kinds() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[string]int)
	for _, v := range l.got {
		m[v.Kind]++
	}
	return m
}

func newAuditEngine(t *testing.T, hooks obs.Hooks, onStep func(int, *Engine[float64, float64])) *Engine[float64, float64] {
	t.Helper()
	e, err := New[float64, float64](auditGraph(), pulseProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 1),
		Partitioner:   fixedPart{of: []int{0, 0, 1, 1}},
		MaxSupersteps: 6,
		Audit:         true,
		Hooks:         hooks,
		OnStep:        onStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// findReplica locates vertex id's replica slot on worker w.
func findReplica(t *testing.T, e *Engine[float64, float64], w int, id graph.ID) int32 {
	t.Helper()
	for r, rid := range e.replicaIDs(w) {
		if rid == id {
			return int32(e.ws[w].numMasters() + r)
		}
	}
	t.Fatalf("vertex %d has no replica on worker %d", id, w)
	return -1
}

func TestAuditCleanRun(t *testing.T) {
	log := &violationLog{}
	e := newAuditEngine(t, log, nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("clean audited run failed: %v", err)
	}
	if len(log.kinds()) != 0 {
		t.Fatalf("violations on a clean run: %v", log.kinds())
	}
}

func TestAuditCatchesReplicaDesync(t *testing.T) {
	var trace bytes.Buffer
	sess, err := obs.Setup(obs.Options{Verbose: true, Stderr: &trace})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	log := &violationLog{}

	var e *Engine[float64, float64]
	e = newAuditEngine(t, obs.Multi(sess.Hooks, log), func(step int, _ *Engine[float64, float64]) {
		if step == 2 {
			// Corrupt vertex 0's replica on worker 1. Its master is inactive
			// and will never republish, so nothing repairs the divergence —
			// only the auditor can see it.
			e.ws[1].view[findReplica(t, e, 1, 0)] = 999
		}
	})
	_, err = e.Run()

	var audit *obs.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("run error = %v, want *obs.AuditError", err)
	}
	v := audit.Violations[0]
	if v.Kind != obs.ViolationReplicaDesync || v.Vertex != 0 || v.Worker != 1 || v.Step != 3 {
		t.Fatalf("violation = %+v, want replica-desync of vertex 0 at worker 1, step 3", v)
	}
	if log.kinds()[obs.ViolationReplicaDesync] == 0 {
		t.Fatalf("no record carried a violation: %v", log.kinds())
	}
	// The -verbose narration must have rendered the violation as a
	// structured event.
	if !strings.Contains(trace.String(), `"msg":"invariant-violation"`) ||
		!strings.Contains(trace.String(), `"kind":"replica-desync"`) {
		t.Fatalf("trace lacks structured violation event:\n%s", trace.String())
	}
}

func TestAuditCatchesDoubleDelivery(t *testing.T) {
	log := &violationLog{}
	var e *Engine[float64, float64]
	e = newAuditEngine(t, log, func(step int, _ *Engine[float64, float64]) {
		if step == 1 {
			// Deliver vertex 0's replica value twice. The value matches the
			// master's, so the view stays consistent — only the at-most-one-
			// message invariant is broken.
			s := findReplica(t, e, 1, 0)
			e.Tr.Send(1, 1, []syncMsg[float64]{{Slot: s, Val: 0.5}, {Slot: s, Val: 0.5}})
		}
	})
	_, err := e.Run()

	var audit *obs.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("run error = %v, want *obs.AuditError", err)
	}
	if log.kinds()[obs.ViolationDoubleDelivery] == 0 {
		t.Fatalf("no double-delivery violation: %v", log.kinds())
	}
	for _, v := range log.got {
		if v.Kind == obs.ViolationDoubleDelivery {
			if v.Vertex != 0 || v.Worker != 1 || v.Step != 2 {
				t.Fatalf("violation = %+v, want vertex 0 at worker 1, step 2", v)
			}
		}
	}
}

func TestAuditCatchesReplicaToMasterTraffic(t *testing.T) {
	log := &violationLog{}
	var e *Engine[float64, float64]
	e = newAuditEngine(t, log, func(step int, _ *Engine[float64, float64]) {
		if step == 1 {
			// Slot 0 on worker 1 is vertex 2's master slot: upward traffic,
			// which the Cyclops communication structure forbids outright.
			e.Tr.Send(0, 1, []syncMsg[float64]{{Slot: 0, Val: 777}})
		}
	})
	_, err := e.Run()

	var audit *obs.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("run error = %v, want *obs.AuditError", err)
	}
	found := false
	for _, v := range log.got {
		if v.Kind == obs.ViolationReplicaToMaster {
			found = true
			if v.Vertex != 2 || v.Worker != 1 || v.Step != 2 {
				t.Fatalf("violation = %+v, want master vertex 2 at worker 1, step 2", v)
			}
		}
	}
	if !found {
		t.Fatalf("no replica-to-master violation: %v", log.kinds())
	}
}
