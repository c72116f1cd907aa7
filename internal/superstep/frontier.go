package superstep

import "math/bits"

// Frontier is one worker's activity: which of its slots compute this
// superstep (current) and which have been activated for the next one (next),
// as two bitmaps. Visiting the current set costs one word test per 64 idle
// slots plus the active ones, so a near-empty superstep does not pay for the
// partition's size. DESIGN.md §4.1 states who may call what in which phase;
// in short: Set/Has/Count between supersteps, Unchanged between phases,
// Words, Next, Repeat and ActivateRow inside phases, from the frontier's one
// writer at a time, Advance at the barrier. Engines walk Words (and gas sets bits in Next) inline: their
// generic instances, compiled where they are instantiated, cannot inline a
// method of this package (DESIGN.md §4.1).
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

// Words is the current set, slot s at bit s&63 of word s>>6, for a phase to
// walk in place: read-only, and valid until the next Advance or Set.
func (f *Frontier) Words() []uint64 { return f.cur }

// StripeMasks splits a walk over Words among `of` threads (of ≥ 1): thread t
// keeps word wi's bits under masks[wi%of], which are exactly its slots
// s ≡ t (mod of) — what a stride loop from t would visit, in the same order.
func StripeMasks(t, of int) []uint64 {
	masks := make([]uint64, of)
	for i := range masks {
		for b := 0; b < 64; b++ {
			if (i<<6+b)%of == t {
				masks[i] |= 1 << b
			}
		}
	}
	return masks
}

// Next is the next set, laid out as Words is, for a phase in which this
// frontier has a single writer to set slot s with a plain
// next[s>>6] |= 1<<(s&63). Valid until the next Advance.
func (f *Frontier) Next() []uint64 { return f.next }

// ActivateRow adds every slot of row to the next set — one call per
// activating vertex rather than one per out-edge. Plain read-modify-writes:
// only for a phase in which this frontier has a single writer.
func (f *Frontier) ActivateRow(row []int32) {
	for _, s := range row {
		f.next[s>>6] |= 1 << (s & 63)
	}
}

// Repeat makes the next set a copy of the current one: the whole activation
// of a superstep known to activate exactly what it computes. Like ActivateRow,
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
