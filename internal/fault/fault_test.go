package fault_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

func TestNewPlanDeterministicBytes(t *testing.T) {
	a := fault.NewPlan(42, 8, 2, 9, 5)
	b := fault.NewPlan(42, 8, 2, 9, 5)
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", a.Encode(), b.Encode())
	}
	c := fault.NewPlan(43, 8, 2, 9, 5)
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Fatal("different seeds produced the same plan")
	}
}

func TestNewPlanBounds(t *testing.T) {
	p := fault.NewPlan(7, 4, 2, 6, 50)
	if len(p.Faults) != 50 {
		t.Fatalf("want 50 faults, got %d", len(p.Faults))
	}
	for _, f := range p.Faults {
		if f.Step < 2 || f.Step > 6 {
			t.Fatalf("fault step %d outside [2,6]: %s", f.Step, f)
		}
		if f.Worker < 0 || f.Worker >= 4 {
			t.Fatalf("fault worker %d outside [0,4): %s", f.Worker, f)
		}
		switch f.Kind {
		case fault.Drop, fault.Corrupt:
			if f.Peer == f.Worker || f.Peer < 0 || f.Peer >= 4 {
				t.Fatalf("bad peer in %s", f)
			}
		case fault.Stall, fault.Slow:
			if f.DelayMs <= 0 {
				t.Fatalf("zero delay in %s", f)
			}
		}
	}
	// Degenerate arguments yield an empty (but valid) plan.
	if p := fault.NewPlan(1, 0, 2, 6, 3); len(p.Faults) != 0 {
		t.Fatalf("0 workers must yield an empty plan, got %v", p)
	}
}

func TestEncodeLoadRoundTrip(t *testing.T) {
	p := fault.NewPlan(11, 6, 2, 8, 4)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, p.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fault.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Encode(), got.Encode()) {
		t.Fatalf("round trip changed the plan:\n%s\n%s", p.Encode(), got.Encode())
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path,
		[]byte(`{"seed":1,"faults":[{"kind":"meteor","step":2,"worker":0,"peer":-1}]}`),
		0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Load(path); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

// rejectedPlans are hand-written plans whose second fault no run can fire.
var rejectedPlans = map[string]string{
	"unknown kind":   `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"meteor","step":2,"worker":0,"peer":-1}]}`,
	"negative step":  `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"crash","step":-2,"worker":0,"peer":-1}]}`,
	"negative wkr":   `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"crash","step":2,"worker":-1,"peer":-1}]}`,
	"negative delay": `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"slow","step":2,"worker":0,"peer":-1,"delay_ms":-5}]}`,
	"peer below -1":  `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"drop","step":2,"worker":0,"peer":-2}]}`,
	"peer is worker": `{"seed":1,"faults":[{"kind":"crash","step":1,"worker":0,"peer":-1},{"kind":"drop","step":2,"worker":3,"peer":3}]}`,
}

func TestLoadRejectsImpossibleFaults(t *testing.T) {
	for name, plan := range rejectedPlans {
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := fault.Load(path)
		var pe *fault.PlanError
		if !errors.As(err, &pe) || pe.Index != 1 {
			t.Errorf("%s: Load = %v, want a *PlanError naming fault 1", name, err)
		}
	}
}

// FuzzPlanLoad: any bytes as a plan file either fail to load with a typed
// error — encoding/json's for malformed JSON, *PlanError for an impossible
// fault — or load a plan that Encode → Load → Encode reproduces byte for byte.
func FuzzPlanLoad(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(fault.NewPlan(seed, int(seed)+1, 1, 9, int(2*seed)).Encode())
	}
	for _, plan := range rejectedPlans {
		f.Add([]byte(plan))
	}
	f.Add([]byte(`{"seed":1,"faults":[{"kind":"crash","step":1e2,"worker":0,"peer":-1}]}`))
	f.Add([]byte(`{"seed":1,"faults":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "plan.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := fault.Load(path)
		if err != nil {
			var (
				pe  *fault.PlanError
				se  *json.SyntaxError
				ute *json.UnmarshalTypeError
			)
			if !errors.As(err, &pe) && !errors.As(err, &se) && !errors.As(err, &ute) {
				t.Fatalf("untyped error %T: %v", errors.Unwrap(err), err)
			}
			return
		}
		enc := p.Encode()
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := fault.Load(path)
		if err != nil {
			t.Fatalf("Load rejects Encode's own output: %v\n%s", err, enc)
		}
		if again := q.Encode(); !bytes.Equal(enc, again) {
			t.Fatalf("Encode → Load → Encode changed the plan:\n%s\n%s", enc, again)
		}
	})
}

func TestErrorIsTransient(t *testing.T) {
	err := &fault.Error{Fault: fault.Fault{Kind: fault.Crash, Step: 3, Worker: 1, Peer: -1}}
	if !transport.IsTransient(err) {
		t.Fatal("injected faults must classify as transient")
	}
}

// newLocal builds the in-process transport the injector tests wrap.
func newLocal(t *testing.T, n int) transport.Interface[int64] {
	t.Helper()
	tr, err := transport.New[int64](transport.InProcess, n, transport.PerSenderQueue, nil, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func drainCount(tr transport.Interface[int64], to int) int {
	total := 0
	for _, b := range tr.Drain(to) {
		total += len(b)
	}
	return total
}

func TestInjectorCrashDropsAllSends(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 3), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Crash, Step: 1, Worker: 0, Peer: -1},
	}})

	inj.BeginStep(0)
	inj.Send(0, 1, []int64{1, 2})
	if inj.Err() != nil {
		t.Fatal("no fault armed at step 0")
	}
	if got := drainCount(inj, 1); got != 2 {
		t.Fatalf("step 0 delivery: %d msgs, want 2", got)
	}

	inj.BeginStep(1)
	inj.Send(0, 1, []int64{1, 2})
	inj.Send(0, 2, []int64{3})
	inj.Send(1, 2, []int64{4}) // another worker is unaffected
	if got := drainCount(inj, 1); got != 0 {
		t.Fatalf("crashed worker's batch arrived: %d msgs", got)
	}
	if got := drainCount(inj, 2); got != 1 {
		t.Fatalf("healthy worker's batch: %d msgs, want 1", got)
	}
	if err := inj.Err(); err == nil || !transport.IsTransient(err) {
		t.Fatalf("crash must report a transient error, got %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", inj.Fired())
	}
}

func TestInjectorDropIsConnectionScoped(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 3), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Drop, Step: 0, Worker: 0, Peer: 1},
	}})
	inj.BeginStep(0)
	inj.Send(0, 1, []int64{1})
	inj.Send(0, 2, []int64{2})
	if got := drainCount(inj, 1); got != 0 {
		t.Fatalf("dropped connection delivered %d msgs", got)
	}
	if got := drainCount(inj, 2); got != 1 {
		t.Fatalf("unaffected connection: %d msgs, want 1", got)
	}
}

func TestInjectorCorruptTruncates(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 2), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Corrupt, Step: 0, Worker: 0, Peer: 1},
	}})
	inj.BeginStep(0)
	inj.Send(0, 1, []int64{1, 2, 3, 4})
	if got := drainCount(inj, 1); got != 2 {
		t.Fatalf("corrupt batch: %d msgs, want 2 (truncated half)", got)
	}
	if err := inj.Err(); err == nil || !transport.IsTransient(err) {
		t.Fatalf("corrupt must report a transient error, got %v", err)
	}
}

func TestInjectorFaultsAreOneShot(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 2), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Drop, Step: 2, Worker: 0, Peer: 1},
	}})
	inj.BeginStep(2)
	inj.Send(0, 1, []int64{1})
	if got := drainCount(inj, 1); got != 0 {
		t.Fatal("fault did not fire")
	}
	if err := inj.Reset(); err != nil {
		t.Fatal(err)
	}
	if inj.Err() != nil {
		t.Fatal("Reset must clear the injected error")
	}
	// The replayed superstep (same number, after recovery) sees no fault.
	inj.BeginStep(2)
	inj.Send(0, 1, []int64{1})
	if got := drainCount(inj, 1); got != 1 {
		t.Fatalf("replayed step re-dropped the batch: %d msgs, want 1", got)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", inj.Fired())
	}
}

func TestInjectorHealDisarmsCurrentStep(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 2), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Crash, Step: 0, Worker: 0, Peer: -1},
	}})
	inj.BeginStep(0)
	// Reset before any send: restore-path traffic (e.g. re-sent pending
	// messages) must not be afflicted by the fault being recovered from.
	if err := inj.Reset(); err != nil {
		t.Fatal(err)
	}
	inj.Send(0, 1, []int64{1})
	if got := drainCount(inj, 1); got != 1 {
		t.Fatalf("restore-path send dropped: %d msgs, want 1", got)
	}
}

func TestInjectorSlowPerturbsTimingOnly(t *testing.T) {
	inj := fault.Wrap(newLocal(t, 2), fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Slow, Step: 0, Worker: 0, Peer: -1, DelayMs: 1},
	}})
	inj.BeginStep(0)
	inj.Send(0, 1, []int64{1})
	if err := inj.Err(); err != nil {
		t.Fatalf("slow must not report an error, got %v", err)
	}
	if got := drainCount(inj, 1); got != 1 {
		t.Fatalf("slow dropped the batch: %d msgs", got)
	}
}
