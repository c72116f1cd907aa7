package aggregate

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// partial contributes vals to a fresh Partial, one Combine per name.
func partial(r *Registry, vals map[string]float64) *Partial {
	var p Partial
	for name, v := range vals {
		r.Combine(&p, name, v)
	}
	return &p
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
	p1 := partial(r, map[string]float64{"err": 1.5, "conv": 10})
	p2 := partial(r, map[string]float64{"err": 2.5, "conv": 4})
	r.Fold([]*Partial{p1, p2})
	if v, ok := r.Value("err"); !ok || v != 4 {
		t.Fatalf("err = %v %v", v, ok)
	}
	if v, _ := r.Value("conv"); v != 14 {
		t.Fatalf("conv = %v", v)
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

// refEntry is one name of the reference fold: a slice in first-contribution
// order, searched by content.
type refEntry struct {
	name string
	v    float64
}

func refCombine(ref []refEntry, name string, v float64) []refEntry {
	for i := range ref {
		if e := &ref[i]; e.name == name {
			e.v += v
			return ref
		}
	}
	return append(ref, refEntry{name, v})
}

// TestCombineHitPathMatchesScan: whichever way Combine finds an entry — the
// first entry's header compare or the scan — partials and folded values equal
// a reference fold bit for bit. Contributions are random sums over named,
// undefined and empty names, each passed as itself, as an equal copy
// elsewhere in memory (strings.Clone), or as a prefix sharing another name's
// data pointer; partials are reused through Reset. A hit, on the first entry
// or a later one, allocates nothing.
func TestCombineHitPathMatchesScan(t *testing.T) {
	r := NewRegistry()
	long := strings.Repeat("ab", 2) // "ab" and "aba" share its data pointer
	names := []string{"sum", "undefined", "", long[:2], long[:3]}
	rng := rand.New(rand.NewSource(7))
	value := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(rng.Intn(2)*2 - 1)
		}
		return rng.NormFloat64()
	}
	same := func(a, b []refEntry) bool {
		return slices.EqualFunc(a, b, func(x, y refEntry) bool {
			// NaN payloads depend on operand order, which the compiler may swap.
			return x.name == y.name && (math.Float64bits(x.v) == math.Float64bits(y.v) || x.v != x.v && y.v != y.v)
		})
	}
	partials := []*Partial{{}, {}, {}}
	for round := 0; round < 500; round++ {
		var folded []refEntry
		for _, p := range partials {
			p.Reset()
			var ref []refEntry
			for i := rng.Intn(30); i > 0; i-- {
				name := names[rng.Intn(len(names))]
				if rng.Intn(3) == 0 {
					name = strings.Clone(name)
				}
				v := value()
				r.Combine(p, name, v)
				ref = refCombine(ref, name, v)
			}
			var got []refEntry
			for _, e := range p.entries {
				got = append(got, refEntry{e.name, e.v})
			}
			if !same(got, ref) {
				t.Fatalf("round %d: partial %v, reference %v", round, got, ref)
			}
			for _, e := range ref {
				folded = refCombine(folded, e.name, e.v)
			}
		}
		r.Fold(partials)
		var got []refEntry
		for _, e := range folded {
			v, ok := r.Value(e.name)
			if !ok {
				t.Fatalf("round %d: %q missing from the fold", round, e.name)
			}
			got = append(got, refEntry{e.name, v})
		}
		if !same(got, folded) || len(r.prev.entries) != len(folded) {
			t.Fatalf("round %d: folded %v, reference %v", round, r.prev.entries, folded)
		}
	}

	var p Partial
	r.Combine(&p, "sum", 1)
	r.Combine(&p, "undefined", 1)
	for _, name := range []string{"sum", "undefined"} {
		if n := testing.AllocsPerRun(100, func() { r.Combine(&p, name, 1) }); n != 0 {
			t.Errorf("a hit on %q allocates %v objects", name, n)
		}
	}
}
