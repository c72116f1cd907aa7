// Package aggregate implements the distributed aggregators and convergence
// detectors of §2.2.3 and §4.4. BSP programs publish named float64
// contributions during compute; the engine sums worker partials at the
// barrier and exposes the previous superstep's sums to the next superstep —
// exactly Pregel's aggregator visibility. Two termination policies are
// provided: the paper's coarse global-error detector and the finer
// converged-proportion detector Cyclops adds (§4.4).
package aggregate

import "unsafe"

// Partial holds named aggregator values in first-contribution order: a
// compute thread's contributions in a superstep, or the folded values. A
// program aggregates a name or two, so a short scan finds the entry — no map
// operation per Aggregate call. The zero Partial is empty and ready to use.
type Partial struct {
	entries []partialEntry
	hit     [2]uintptr // entries[0].name's header, length + 1; zero matches no name
}

type partialEntry struct {
	name string
	v    float64
}

// Reset empties p, keeping its capacity for the next superstep.
func (p *Partial) Reset() { *p = Partial{entries: p.entries[:0]} }

// Registry holds the folded values of the previous superstep. Every
// aggregator is a sum over a name. It is written only at barriers (single
// goroutine) and read during compute, so it needs no locking.
type Registry struct {
	prev Partial
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Combine adds contribution v to p's entry for name, creating it on the
// name's first contribution. Worker threads call it concurrently, each on its
// own partial; it never mutates the registry.
//
// The hit path is p's first entry under the very same string, as a program
// passing its constant name does: one compare of string headers (data pointer
// and length) and an add. Equal headers are equal names, so no memequal call
// is needed; an equal name at another address takes the scan.
func (r *Registry) Combine(p *Partial, name string, v float64) {
	if *(*[2]uintptr)(unsafe.Pointer(&name)) == [2]uintptr{p.hit[0], p.hit[1] - 1} {
		p.entries[0].v += v
		return
	}
	for i := range p.entries {
		if e := &p.entries[i]; e.name == name {
			e.v += v
			return
		}
	}
	p.entries = append(p.entries, partialEntry{name: name, v: v})
	if len(p.entries) == 1 {
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
