// Package aggregate implements the distributed aggregators and convergence
// detectors of §2.2.3 and §4.4. BSP programs publish named float64
// contributions during compute; the engine folds worker partials at the
// barrier and exposes the previous superstep's folded values to the next
// superstep — exactly Pregel's aggregator visibility. Two termination
// policies are provided: the paper's coarse global-error detector and the
// finer converged-proportion detector Cyclops adds (§4.4).
package aggregate

import (
	"fmt"
	"unsafe"
)

// Op is the combining operation of an aggregator.
type Op int

const (
	// Sum adds contributions.
	Sum Op = iota
	// Max keeps the maximum contribution.
	Max
	// Min keeps the minimum contribution.
	Min
)

// Partial holds named aggregator values in first-contribution order: a
// compute thread's contributions in a superstep, or the folded values. A
// program aggregates a name or two, so a short scan finds the entry — no map
// operation per Aggregate call. The zero Partial is empty and ready to use.
type Partial struct {
	entries []partialEntry
	hit     [2]uintptr // entries[0].name's header, length + 1, while it is a Sum; zero matches no name
}

type partialEntry struct {
	name string
	op   Op
	v    float64
}

// Reset empties p, keeping its capacity for the next superstep.
func (p *Partial) Reset() { *p = Partial{entries: p.entries[:0]} }

// Registry defines the aggregators of a job and holds the folded values of
// the previous superstep. It is written only at barriers (single goroutine)
// and read during compute, so it needs no locking.
type Registry struct {
	ops  map[string]Op
	prev Partial
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{ops: make(map[string]Op)} }

// Define registers an aggregator. Redefining a name replaces its op.
func (r *Registry) Define(name string, op Op) { r.ops[name] = op }

// Combine folds contribution v into p under the aggregator's op; unknown
// names behave as Sum, so programs can aggregate ad hoc. Worker threads call
// it concurrently, so it never mutates the registry — Define before Run.
//
// The hit path is a Sum into p's first entry under the very same string, as
// a program passing its constant name does: one compare of string headers
// (data pointer and length) and an add. Equal headers are equal names, so no
// memequal call is needed; an equal name at another address takes the scan.
func (r *Registry) Combine(p *Partial, name string, v float64) {
	if *(*[2]uintptr)(unsafe.Pointer(&name)) == [2]uintptr{p.hit[0], p.hit[1] - 1} {
		p.entries[0].v += v
		return
	}
	for i := range p.entries {
		if e := &p.entries[i]; e.name == name {
			switch {
			case e.op == Sum:
				e.v += v
			case e.op == Max && v > e.v, e.op == Min && v < e.v:
				e.v = v
			case e.op != Max && e.op != Min:
				panic(fmt.Sprintf("aggregate: unknown op %d", e.op))
			}
			return
		}
	}
	p.entries = append(p.entries, partialEntry{name: name, op: r.ops[name], v: v}) // absent: Sum
	if len(p.entries) == 1 && p.entries[0].op == Sum {
		p.hit = *(*[2]uintptr)(unsafe.Pointer(&name))
		p.hit[1]++
	}
}

// Fold combines thread partials, in order, into the values visible in the
// next superstep.
func (r *Registry) Fold(partials []*Partial) {
	r.prev.Reset()
	for _, p := range partials {
		for _, e := range p.entries {
			r.Combine(&r.prev, e.name, e.v)
		}
	}
}

// Value returns the folded value of the previous superstep.
func (r *Registry) Value(name string) (float64, bool) {
	for _, e := range r.prev.entries {
		if e.name == name {
			return e.v, true
		}
	}
	return 0, false
}

// HaltFunc decides, at the end of a superstep, whether the job should stop.
// agg reads the values folded at this superstep's barrier; active is the
// number of vertices that will be active next superstep.
type HaltFunc func(step int, agg func(name string) (float64, bool), active int64) bool

// HaltWhenInactive is the default Pregel/Cyclops termination: stop when no
// vertex is active.
func HaltWhenInactive() HaltFunc {
	return func(_ int, _ func(string) (float64, bool), active int64) bool {
		return active == 0
	}
}

// GlobalErrorHalt reproduces the paper's coarse detector: stop when the
// average of aggregator `name` over n vertices drops below eps. As §2.2.3
// shows, this can falsely converge important vertices — which is exactly
// what experiment F3.3 demonstrates.
func GlobalErrorHalt(name string, n int, eps float64) HaltFunc {
	return func(step int, agg func(string) (float64, bool), _ int64) bool {
		if step == 0 {
			return false // aggregates need one superstep to flow
		}
		total, ok := agg(name)
		if !ok {
			return false
		}
		return total/float64(n) < eps
	}
}

// ConvergedProportionHalt is Cyclops' finer detector (§4.4): stop when the
// fraction of converged vertices (aggregator `name` counts them) reaches
// target. n is the vertex count.
func ConvergedProportionHalt(name string, n int, target float64) HaltFunc {
	return func(step int, agg func(string) (float64, bool), _ int64) bool {
		if step == 0 || n == 0 {
			return n == 0
		}
		converged, ok := agg(name)
		if !ok {
			return false
		}
		return converged/float64(n) >= target
	}
}

// MaxSteps wraps another HaltFunc with a superstep budget: stop when inner
// fires or after limit supersteps.
func MaxSteps(limit int, inner HaltFunc) HaltFunc {
	return func(step int, agg func(string) (float64, bool), active int64) bool {
		if step+1 >= limit {
			return true
		}
		if inner == nil {
			return active == 0
		}
		return inner(step, agg, active)
	}
}
