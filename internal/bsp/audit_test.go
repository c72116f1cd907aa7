package bsp

// Fault-injection tests for the message-conservation auditor (Config.Audit).
// BSP has no replicas to audit, but its correctness rests on an equally
// structural invariant: every envelope flushed at SND arrives at the next
// PRS. The tests break it both ways — dropping a worker's queued messages
// and injecting envelopes that were never sent — and assert the auditor
// fails the run with a structured *obs.AuditError.

import (
	"errors"
	"sync"
	"testing"

	"cyclops/internal/cluster"
	"cyclops/internal/obs"
)

// auditLog keeps every record's violations.
type auditLog struct {
	obs.Nop
	mu  sync.Mutex
	got []obs.Violation
}

func (l *auditLog) OnSuperstep(rec *obs.StepRecord) {
	l.mu.Lock()
	l.got = append(l.got, rec.Violations...)
	l.mu.Unlock()
}

func (l *auditLog) violations() []obs.Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Violation(nil), l.got...)
}

func newAuditEngine(t *testing.T, hooks obs.Hooks, onStep func(int, *Engine[float64, float64])) *Engine[float64, float64] {
	t.Helper()
	e, err := New[float64, float64](ringGraph(40), maxProg{}, Config[float64, float64]{
		Cluster:       cluster.Flat(2, 1),
		MaxSupersteps: 8,
		Audit:         true,
		Hooks:         hooks,
		OnStep:        onStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAuditCleanRun(t *testing.T) {
	log := &auditLog{}
	e := newAuditEngine(t, log, nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("clean audited run failed: %v", err)
	}
	if vs := log.violations(); len(vs) != 0 {
		t.Fatalf("violations on a clean run: %v", vs)
	}
}

func checkConservationViolation(t *testing.T, err error, log *auditLog, wantStep int) {
	t.Helper()
	var audit *obs.AuditError
	if !errors.As(err, &audit) {
		t.Fatalf("run error = %v, want *obs.AuditError", err)
	}
	v := audit.Violations[0]
	if v.Kind != obs.ViolationMessageConservation || v.Step != wantStep {
		t.Fatalf("violation = %+v, want %s at step %d",
			v, obs.ViolationMessageConservation, wantStep)
	}
	if vs := log.violations(); len(vs) == 0 || vs[0].Kind != obs.ViolationMessageConservation {
		t.Fatalf("no record carried the conservation violation: %v", vs)
	}
}

func TestAuditCatchesMessageLoss(t *testing.T) {
	log := &auditLog{}
	var e *Engine[float64, float64]
	e = newAuditEngine(t, log, func(step int, _ *Engine[float64, float64]) {
		if step == 1 {
			// Discard everything in flight — messages superstep 1 put on the
			// wire that superstep 2 will now never deliver. (At step 1 the max
			// has propagated one hop, so exactly one envelope is queued.)
			e.Tr.Drain(0)
			e.Tr.Drain(1)
		}
	})
	_, err := e.Run()
	checkConservationViolation(t, err, log, 2)
}

func TestAuditCatchesInjectedMessages(t *testing.T) {
	log := &auditLog{}
	var e *Engine[float64, float64]
	e = newAuditEngine(t, log, func(step int, _ *Engine[float64, float64]) {
		if step == 1 {
			// Forge an envelope no SND phase accounted for.
			e.Tr.Send(0, 0, []envelope[float64]{{Dst: e.owned[0][0], Msg: 1}})
		}
	})
	_, err := e.Run()
	checkConservationViolation(t, err, log, 2)
}
