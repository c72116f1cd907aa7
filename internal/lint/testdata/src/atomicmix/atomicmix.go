// Package atomicmix exercises the atomicmix analyzer: variables touched by
// sync/atomic must be atomic everywhere.
package atomicmix

import "sync/atomic"

type counters struct {
	hits   uint32 // atomic
	misses uint32 // atomic
	name   string // plain, never atomic
}

func bump(c *counters) {
	atomic.AddUint32(&c.hits, 1)
	atomic.AddUint32(&c.misses, 1)
}

func mixed(c *counters) uint32 {
	if c.hits > 0 { // want `non-atomic access of hits`
		c.hits = 0 // want `non-atomic access of hits`
	}
	return atomic.LoadUint32(&c.misses) // consistent atomic read: legal
}

func plainFieldIsFine(c *counters) string {
	return c.name // never accessed atomically anywhere: legal
}

func construction() *counters {
	return &counters{hits: 1, misses: 2} // composite-literal init happens-before sharing: legal
}

type workerState struct {
	flags []uint32 // atomic element stores during the parallel phase
}

func activate(ws *workerState, ls int) {
	atomic.StoreUint32(&ws.flags[ls], 1)
}

func barrier(ws *workerState) int {
	var n int
	for s := range ws.flags { // want `non-atomic access of flags`
		if ws.flags[s] != 0 { // want `non-atomic access of flags`
			n++
			ws.flags[s] = 0 // want `non-atomic access of flags`
		}
	}
	//lint:allow atomicmix single-threaded after the superstep barrier (golden-test allow)
	ws.flags[0] = 0
	return n
}

// sameNameOtherType proves object identity, not field names, drives the
// check: this `hits` is a different struct's field.
type otherCounters struct{ hits uint32 }

func otherIsFine(o *otherCounters) uint32 {
	o.hits++
	return o.hits
}

// Frontier mirrors superstep.Frontier: the analyzer knows by name that
// Activate and Advance are ordered against ActivateShared by phase joins.
type Frontier struct{ cur, next []uint64 }

func (f *Frontier) ActivateShared(s int) {
	for {
		old := atomic.LoadUint64(&f.next[s>>6])
		if atomic.CompareAndSwapUint64(&f.next[s>>6], old, old|1<<(s&63)) {
			return
		}
	}
}

func (f *Frontier) Activate(s int) { f.next[s>>6] |= 1 << (s & 63) } // phase-ordered by name: legal

func (f *Frontier) Advance() {
	f.cur, f.next = f.next, f.cur // phase-ordered by name: legal
	clear(f.next)
}

func (f *Frontier) Peek(s int) bool {
	return f.next[s>>6]&(1<<(s&63)) != 0 // want `non-atomic access of next`
}

// otherType's Advance is not in the table: the exemption is per type.
type otherFrontier struct{ next []uint64 }

func (o *otherFrontier) Shared(s int) { atomic.StoreUint64(&o.next[s], 1) }

func (o *otherFrontier) Advance() {
	clear(o.next) // want `non-atomic access of next`
}
