package superstep_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cyclops/internal/superstep"
)

var frontierSizes = []int{0, 1, 63, 64, 65, 4097}

// collect walks one stripe of f's current set the way the engines do: a word
// loop over Words, masked by StripeMasks when there is more than one thread.
func collect(f *superstep.Frontier, t, of int) []int {
	var out []int
	masks := superstep.StripeMasks(t, of)
	for wi, word := range f.Words() {
		if of > 1 {
			word &= masks[wi%of]
		}
		for ; word != 0; word &= word - 1 {
			out = append(out, wi<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// randomSet draws a set over [0, n): empty, full, the two ends, or a random
// density — the shapes that exercise word boundaries.
func randomSet(rng *rand.Rand, n int) []int {
	var set []int
	switch mode := rng.Intn(5); {
	case n == 0 || mode == 0:
	case mode == 1:
		for s := 0; s < n; s++ {
			set = append(set, s)
		}
	case mode == 2:
		set = append(set, 0)
		if n > 1 {
			set = append(set, n-1)
		}
	default:
		p := rng.Float64()
		for s := 0; s < n; s++ {
			if rng.Float64() < p {
				set = append(set, s)
			}
		}
	}
	return set
}

// activate sets slot s in f's next set, as an engine's single writer does
// through Next.
func activate(f *superstep.Frontier, s int) { f.Next()[s>>6] |= 1 << (s & 63) }

func TestFrontierIterationIsTheActivatedSetAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range frontierSizes {
		for trial := 0; trial < 40; trial++ {
			want := randomSet(rng, n)
			f := superstep.NewFrontier(n)
			// Activate in a shuffled order, some slots twice: idempotent.
			for _, i := range rng.Perm(len(want)) {
				activate(&f, want[i])
				if rng.Intn(3) == 0 {
					activate(&f, want[i])
				}
			}
			if got := collect(&f, 0, 1); len(got) != 0 {
				t.Fatalf("n=%d: activations visible before Advance: %v", n, got)
			}
			if got := f.Advance(); got != len(want) {
				t.Fatalf("n=%d: Advance = %d, want popcount %d", n, got, len(want))
			}
			if got := collect(&f, 0, 1); !slices.Equal(got, want) {
				t.Fatalf("n=%d: iteration %v, want %v", n, got, want)
			}
			if got := f.Count(); got != len(want) {
				t.Fatalf("n=%d: Count = %d, want %d", n, got, len(want))
			}
			// Advance left next empty: a second barrier with no activation
			// in between empties the frontier.
			if got := f.Advance(); got != 0 || len(collect(&f, 0, 1)) != 0 {
				t.Fatalf("n=%d: next not empty after Advance: %d pending", n, got)
			}
		}
	}
}

// TestFrontierUnchangedAndRepeat drives the steady shortcut's primitives:
// Unchanged is true iff Advance produced the set it replaced, Set clears it
// whatever it writes, and Repeat makes next equal current, leaving current be.
func TestFrontierUnchangedAndRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range frontierSizes {
		for trial := 0; trial < 40; trial++ {
			f := superstep.NewFrontier(n)
			if f.Unchanged() {
				t.Fatalf("n=%d: a new frontier reports Unchanged", n)
			}
			old := randomSet(rng, n)
			for _, s := range old {
				f.Set(s, true)
			}
			next := old
			if trial%2 == 1 {
				next = randomSet(rng, n)
			}
			for _, s := range next {
				activate(&f, s)
			}
			if got := f.Advance(); got != len(next) {
				t.Fatalf("n=%d: Advance = %d, want popcount %d", n, got, len(next))
			}
			if got, want := f.Unchanged(), slices.Equal(old, next); got != want {
				t.Fatalf("n=%d: Unchanged = %v after %v → %v", n, got, old, next)
			}
			f.Repeat()
			if got := collect(&f, 0, 1); !slices.Equal(got, next) {
				t.Fatalf("n=%d: Repeat moved the current set to %v, want %v", n, got, next)
			}
			if got := f.Advance(); got != len(next) || !f.Unchanged() || !slices.Equal(collect(&f, 0, 1), next) {
				t.Fatalf("n=%d: after Repeat, Advance = %d (unchanged %v) over %v, want %v",
					n, got, f.Unchanged(), collect(&f, 0, 1), next)
			}
			if n > 0 {
				s := rng.Intn(n)
				f.Set(s, f.Has(s)) // writes the bit it read: no change, still a seed
				if f.Unchanged() {
					t.Fatalf("n=%d: Set(%d) left Unchanged set", n, s)
				}
			}
		}
	}
}

// TestFrontierStripesPartitionLikeTheStrideLoop: the engines' word walk under
// StripeMasks(t, of) visits exactly what a stride loop from t would.
func TestFrontierStripesPartitionLikeTheStrideLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range frontierSizes {
		for _, of := range []int{1, 2, 3, 8} {
			for trial := 0; trial < 10; trial++ {
				set := randomSet(rng, n)
				f := superstep.NewFrontier(n)
				for _, s := range set {
					f.Set(s, true)
				}
				for th := 0; th < of; th++ {
					var want []int
					for _, s := range set {
						if s%of == th {
							want = append(want, s)
						}
					}
					if got := collect(&f, th, of); !slices.Equal(got, want) {
						t.Fatalf("n=%d stripe %d of %d: %v, want %v", n, th, of, got, want)
					}
				}
			}
		}
	}
}

// TestFrontierActivateRowIsActivateLoop: ActivateRow sets exactly the bits a
// loop of single-slot activations over the same row would, duplicates and all.
func TestFrontierActivateRowIsActivateLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range frontierSizes[1:] {
		for trial := 0; trial < 20; trial++ {
			byRow, bySlot := superstep.NewFrontier(n), superstep.NewFrontier(n)
			for r := rng.Intn(4); r >= 0; r-- {
				row := make([]int32, rng.Intn(2*n+1))
				for i := range row {
					row[i] = int32(rng.Intn(n))
				}
				byRow.ActivateRow(row)
				for _, s := range row {
					activate(&bySlot, int(s))
				}
			}
			byRow.Advance()
			bySlot.Advance()
			if got, want := collect(&byRow, 0, 1), collect(&bySlot, 0, 1); !slices.Equal(got, want) {
				t.Fatalf("n=%d: ActivateRow set %v, Activate loop %v", n, got, want)
			}
		}
	}
}

// TestFrontierSeedQueryRoundTrip drives Set/Has the way snapshot and Restore
// do: through a []bool of the checkpoint's shape, including clearing slots
// that were active before the restore.
func TestFrontierSeedQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range frontierSizes {
		f := superstep.NewFrontier(n)
		for _, s := range randomSet(rng, n) {
			f.Set(s, true) // stale state the restore must overwrite
		}
		saved := make([]bool, n)
		for _, s := range randomSet(rng, n) {
			saved[s] = true
		}
		for s, on := range saved {
			f.Set(s, on)
		}
		for s, on := range saved {
			if f.Has(s) != on {
				t.Fatalf("n=%d slot %d: Has = %v, want %v", n, s, f.Has(s), on)
			}
		}
	}
}
