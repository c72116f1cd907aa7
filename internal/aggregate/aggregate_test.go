package aggregate

import "testing"

// partial contributes vals to a fresh Partial, one Combine per name.
func partial(r *Registry, vals map[string]float64) *Partial {
	var p Partial
	for name, v := range vals {
		r.Combine(&p, name, v)
	}
	return &p
}

func TestCombineOps(t *testing.T) {
	r := NewRegistry()
	r.Define("sum", Sum)
	r.Define("max", Max)
	r.Define("min", Min)
	var local Partial
	for _, v := range []float64{3, 1, 2} {
		r.Combine(&local, "sum", v)
		r.Combine(&local, "max", v)
		r.Combine(&local, "min", v)
	}
	r.Fold([]*Partial{&local})
	for name, want := range map[string]float64{"sum": 6, "max": 3, "min": 1} {
		if got, _ := r.Value(name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	// Reset empties the partial for the next superstep.
	local.Reset()
	r.Fold([]*Partial{&local})
	if _, ok := r.Value("sum"); ok {
		t.Fatal("a reset partial still contributes")
	}
}

func TestCombineUnknownNameDefaultsToSum(t *testing.T) {
	r := NewRegistry()
	var local Partial
	r.Combine(&local, "adhoc", 2)
	r.Combine(&local, "adhoc", 3)
	r.Fold([]*Partial{&local})
	if v, _ := r.Value("adhoc"); v != 5 {
		t.Fatalf("adhoc = %g", v)
	}
}

func TestFoldAcrossWorkers(t *testing.T) {
	r := NewRegistry()
	r.Define("err", Sum)
	r.Define("peak", Max)
	p1 := partial(r, map[string]float64{"err": 1.5, "peak": 10})
	p2 := partial(r, map[string]float64{"err": 2.5, "peak": 4})
	r.Fold([]*Partial{p1, p2})
	if v, ok := r.Value("err"); !ok || v != 4 {
		t.Fatalf("err = %v %v", v, ok)
	}
	if v, _ := r.Value("peak"); v != 10 {
		t.Fatalf("peak = %v", v)
	}
	if _, ok := r.Value("absent"); ok {
		t.Fatal("absent name must report !ok")
	}
	// A later fold replaces, not accumulates.
	r.Fold([]*Partial{partial(r, map[string]float64{"err": 1})})
	if v, _ := r.Value("err"); v != 1 {
		t.Fatalf("refolded err = %v", v)
	}
}

func TestHaltWhenInactive(t *testing.T) {
	h := HaltWhenInactive()
	if h(3, nil, 5) {
		t.Error("must not halt with active vertices")
	}
	if !h(3, nil, 0) {
		t.Error("must halt with zero active")
	}
}

func TestGlobalErrorHalt(t *testing.T) {
	r := NewRegistry()
	h := GlobalErrorHalt("err", 100, 1e-3)
	agg := r.Value
	if h(0, agg, 10) {
		t.Error("must not halt at step 0")
	}
	r.Fold([]*Partial{partial(r, map[string]float64{"err": 1.0})}) // avg 0.01 > eps
	if h(1, agg, 10) {
		t.Error("must not halt above eps")
	}
	r.Fold([]*Partial{partial(r, map[string]float64{"err": 0.05})}) // avg 5e-4 < eps
	if !h(2, agg, 10) {
		t.Error("must halt below eps")
	}
	// Missing aggregator: keep running.
	if GlobalErrorHalt("ghost", 10, 1)(1, agg, 10) {
		t.Error("missing aggregator must not halt")
	}
}

func TestConvergedProportionHalt(t *testing.T) {
	r := NewRegistry()
	h := ConvergedProportionHalt("conv", 200, 0.95)
	if h(0, r.Value, 10) {
		t.Error("step 0 must not halt")
	}
	r.Fold([]*Partial{partial(r, map[string]float64{"conv": 100})})
	if h(1, r.Value, 10) {
		t.Error("50% converged must not halt at target 95%")
	}
	r.Fold([]*Partial{partial(r, map[string]float64{"conv": 191})})
	if !h(2, r.Value, 10) {
		t.Error("95.5% converged must halt")
	}
	if !ConvergedProportionHalt("conv", 0, 0.9)(0, r.Value, 0) {
		t.Error("zero-vertex job must halt immediately")
	}
}

func TestMaxSteps(t *testing.T) {
	h := MaxSteps(3, HaltWhenInactive())
	if h(0, nil, 5) || h(1, nil, 5) {
		t.Error("must not halt before the budget with active vertices")
	}
	if !h(2, nil, 5) {
		t.Error("must halt when budget reached")
	}
	if !h(0, nil, 0) {
		t.Error("inner halt must still fire early")
	}
	if !MaxSteps(100, nil)(0, nil, 0) {
		t.Error("nil inner must default to inactive halt")
	}
}
