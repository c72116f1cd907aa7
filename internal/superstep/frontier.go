package superstep

import (
	"math/bits"
	"sync/atomic"
)

// Frontier is one worker's activity: which of its slots compute this
// superstep (current) and which have been activated for the next one (next),
// as two bitmaps. Visiting the current set costs one word test per 64 idle
// slots plus the active ones, so a near-empty superstep does not pay for the
// partition's size. DESIGN.md §4.1 states who may call what in which phase;
// in short: Set/Has/Count between supersteps, Unchanged between phases,
// Stripe, Repeat and the two Activates inside phases, Advance at the barrier.
type Frontier struct {
	cur, next []uint64
	unchanged bool // the last Advance reproduced the set it replaced; Set clears it
}

// NewFrontier returns an empty frontier over slots [0, n).
func NewFrontier(n int) Frontier {
	words := (n + 63) / 64
	slab := make([]uint64, 2*words)
	return Frontier{cur: slab[:words:words], next: slab[words:]}
}

// Set seeds or clears slot s in the current set — Init, Restore and Evolve,
// with no phase running. It clears Unchanged: a seeded set has no history.
func (f *Frontier) Set(s int, on bool) {
	f.unchanged = false
	if on {
		f.cur[s>>6] |= 1 << (s & 63)
	} else {
		f.cur[s>>6] &^= 1 << (s & 63)
	}
}

// Has reports whether slot s is in the current set.
func (f *Frontier) Has(s int) bool { return f.cur[s>>6]&(1<<(s&63)) != 0 }

// Count is the size of the current set.
func (f *Frontier) Count() int {
	n := 0
	for _, w := range f.cur {
		n += bits.OnesCount64(w)
	}
	return n
}

// Activate adds slot s to the next set. Plain read-modify-write: only for a
// phase in which this frontier has a single writer.
func (f *Frontier) Activate(s int) { f.next[s>>6] |= 1 << (s & 63) }

// ActivateShared is Activate for a phase with concurrent writers. It tests
// before it swaps, so re-activating an already set slot — the common case on
// a dense frontier — is a load and no bus-locked instruction.
func (f *Frontier) ActivateShared(s int) {
	bit := uint64(1) << (s & 63)
	for {
		old := atomic.LoadUint64(&f.next[s>>6])
		if old&bit != 0 || atomic.CompareAndSwapUint64(&f.next[s>>6], old, old|bit) {
			return
		}
	}
}

// Repeat makes the next set a copy of the current one: the whole activation
// of a superstep known to activate exactly what it computes. Like Activate,
// only for a phase in which this frontier has a single writer.
func (f *Frontier) Repeat() { copy(f.next, f.cur) }

// Unchanged reports whether the last Advance produced exactly the set it
// replaced, with no Set since.
func (f *Frontier) Unchanged() bool { return f.unchanged }

// Advance is the barrier: next becomes current, next is emptied, and the new
// current set's size — the pending count — is returned; the same pass records
// Unchanged. The caller must have joined every goroutine that activated; that
// join is the happens-before edge that lets Advance, and the following
// superstep's readers, use plain loads.
func (f *Frontier) Advance() int {
	f.cur, f.next = f.next, f.cur
	n, diff, old := 0, uint64(0), f.next[:len(f.cur)]
	for i, w := range f.cur {
		n += bits.OnesCount64(w)
		diff |= w ^ old[i]
		old[i] = 0
	}
	f.unchanged = diff == 0
	return n
}

// Cursor walks one stripe of a frontier's current set in ascending slot order.
type Cursor struct {
	words   []uint64
	word    uint64 // unvisited bits of words[wi], stripe mask applied
	wi      int
	t, of   int
	pattern uint64 // bits b with b ≡ 0 (mod of)
}

// Stripe returns a cursor over the current slots s with s%of == t (of ≥ 1):
// thread t of `of` visits exactly what a stride loop from t would, and
// Stripe(0, 1) is the whole set. The set must not change while cursors are open.
func (f *Frontier) Stripe(t, of int) Cursor {
	c := Cursor{words: f.cur, wi: -1, t: t, of: of}
	for b := 0; b < 64; b += of {
		c.pattern |= 1 << b
	}
	return c
}

// Next returns the stripe's next slot, or -1 when it is exhausted.
// It sits exactly at the compiler's inlining budget (go build -gcflags=-m);
// keep it there, the engines call it once per active slot.
func (c *Cursor) Next() int {
	for c.word == 0 {
		if c.wi++; c.wi >= len(c.words) {
			return -1
		}
		c.word = c.words[c.wi]
		if c.of > 1 && c.word != 0 {
			// The word's first slot is 64·wi, so the stripe's bits are those
			// b ≡ t − 64·wi (mod of): the base pattern shifted by that residue.
			c.word &= c.pattern << ((c.t - (c.wi<<6)%c.of + c.of) % c.of)
		}
	}
	s := c.wi<<6 | bits.TrailingZeros64(c.word)
	c.word &= c.word - 1
	return s
}
