package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{Parse: "PRS", Compute: "CMP", Send: "SND", Sync: "SYN"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestTraceTotals(t *testing.T) {
	tr := &Trace{Engine: "test", Workers: 4}
	tr.Append(StepStats{
		Step: 0, Active: 10, Messages: 100,
		Durations:  [4]time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond},
		ModelNanos: 500,
	})
	tr.Append(StepStats{
		Step: 1, Active: 5, Messages: 50,
		Durations:  [4]time.Duration{1 * time.Millisecond, 1 * time.Millisecond, 1 * time.Millisecond, 1 * time.Millisecond},
		ModelNanos: 250,
	})
	if tr.TotalMessages() != 150 {
		t.Errorf("TotalMessages = %d", tr.TotalMessages())
	}
	if tr.TotalDuration() != 14*time.Millisecond {
		t.Errorf("TotalDuration = %v", tr.TotalDuration())
	}
	if tr.ModelTime() != 750 {
		t.Errorf("ModelTime = %g", tr.ModelTime())
	}
	totals := tr.PhaseTotals()
	if totals[Parse] != 2*time.Millisecond || totals[Sync] != 5*time.Millisecond {
		t.Errorf("PhaseTotals = %v", totals)
	}
	ratios := tr.PhaseRatios()
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("ratios sum to %g", sum)
	}
	if tr.String() == "" {
		t.Error("String must render")
	}
}

func TestPhaseRatiosEmpty(t *testing.T) {
	tr := &Trace{}
	ratios := tr.PhaseRatios()
	for _, r := range ratios {
		if r != 0 {
			t.Fatal("empty trace must have zero ratios")
		}
	}
}

func TestCostModelQueueDisciplineGap(t *testing.T) {
	m := DefaultCostModel()
	// Same traffic, global-queue (Hama) vs direct-apply (Cyclops): the
	// queue-and-parse path must cost strictly more.
	hama := m.StepCost(1000, 500, 500, 1, 1, 8, true, m.FlatBarrier(8))
	cyc := m.StepCost(1000, 500, 500, 1, 1, 8, false, m.FlatBarrier(8))
	if hama <= cyc {
		t.Fatalf("global queue %g must exceed direct apply %g", hama, cyc)
	}
}

func TestCostModelThreadsHelpCompute(t *testing.T) {
	m := DefaultCostModel()
	one := m.StepCost(100000, 0, 0, 1, 1, 1, false, 0)
	eight := m.StepCost(100000, 0, 0, 8, 1, 1, false, 0)
	if eight >= one {
		t.Fatalf("8 threads %g must beat 1 thread %g", eight, one)
	}
	if one/eight < 7 || one/eight > 9 {
		t.Fatalf("compute scaling = %g, want ≈8", one/eight)
	}
}

func TestHierarchicalBarrierBeatsFlat(t *testing.T) {
	m := DefaultCostModel()
	// Fig 12's story: 48 flat workers vs 6 machines × 8 threads.
	flat := m.FlatBarrier(48)
	hier := m.HierarchicalBarrier(6, 8)
	if hier >= flat {
		t.Fatalf("hierarchical %g must beat flat %g", hier, flat)
	}
}

func TestBarrierGrowsWithParticipants(t *testing.T) {
	m := DefaultCostModel()
	prev := 0.0
	for _, n := range []int{2, 6, 12, 24, 48} {
		b := m.FlatBarrier(n)
		if b <= prev {
			t.Fatalf("barrier cost not increasing at n=%d", n)
		}
		prev = b
	}
}

func TestStepCostReceiversParallelise(t *testing.T) {
	m := DefaultCostModel()
	r1 := m.StepCost(0, 0, 10000, 1, 1, 1, false, 0)
	r4 := m.StepCost(0, 0, 10000, 1, 4, 1, false, 0)
	if r4 >= r1 {
		t.Fatalf("4 receivers %g must beat 1 receiver %g", r4, r1)
	}
}

func TestStepCostClampsZeroParallelism(t *testing.T) {
	m := DefaultCostModel()
	if c := m.StepCost(100, 0, 100, 0, 0, 1, false, 0); c <= 0 {
		t.Fatalf("cost with clamped parallelism = %g", c)
	}
}

func TestSummarizeResiduals(t *testing.T) {
	n, p50, p90, max := SummarizeResiduals(nil)
	if n != 0 || p50 != 0 || p90 != 0 || max != 0 {
		t.Fatalf("empty set = %d/%g/%g/%g, want zeros", n, p50, p90, max)
	}

	// Ten values 1..10: nearest-rank p50 = 5, p90 = 9, max = 10.
	xs := []float64{10, 3, 7, 1, 9, 5, 2, 8, 4, 6}
	n, p50, p90, max = SummarizeResiduals(xs)
	if n != 10 || p50 != 5 || p90 != 9 || max != 10 {
		t.Fatalf("1..10 = %d/%g/%g/%g, want 10/5/9/10", n, p50, p90, max)
	}

	// Non-finite samples (an SSSP vertex leaving +Inf, a NaN) are dropped.
	xs = []float64{math.Inf(1), math.NaN(), 2, math.Inf(-1), 4}
	n, p50, p90, max = SummarizeResiduals(xs)
	if n != 2 || p50 != 2 || p90 != 4 || max != 4 {
		t.Fatalf("with non-finite = %d/%g/%g/%g, want 2/2/4/4", n, p50, p90, max)
	}

	// n = 1 and n = 2: the median is the smaller value, p90 (rank ⌈1.8⌉ = 2)
	// the larger.
	if n, p50, p90, max = SummarizeResiduals([]float64{3}); n != 1 || p50 != 3 || p90 != 3 || max != 3 {
		t.Fatalf("{3} = %d/%g/%g/%g, want 1/3/3/3", n, p50, p90, max)
	}
	if n, p50, p90, max = SummarizeResiduals([]float64{5, 2}); n != 2 || p50 != 2 || p90 != 5 || max != 5 {
		t.Fatalf("{5, 2} = %d/%g/%g/%g, want 2/2/5/5", n, p50, p90, max)
	}

	if s := (StepStats{Messages: 10, RedundantMessages: 4}); s.RedundantRatio() != 0.4 {
		t.Fatalf("RedundantRatio = %g, want 0.4", s.RedundantRatio())
	}
	if s := (StepStats{}); s.RedundantRatio() != 0 {
		t.Fatalf("RedundantRatio of empty step = %g, want 0", s.RedundantRatio())
	}
}

// TestSummarizeResidualsMatchesSort pins the selection against the sorting
// summary it replaced, on random sets with many duplicates and zeros, sizes 1
// to 200 plus a few large ones, with non-finite values mixed in.
func TestSummarizeResidualsMatchesSort(t *testing.T) {
	bySort := func(samples []float64) (int64, float64, float64, float64) {
		var finite []float64
		for _, x := range samples {
			if !math.IsInf(x, 0) && !math.IsNaN(x) {
				finite = append(finite, x)
			}
		}
		if len(finite) == 0 {
			return 0, 0, 0, 0
		}
		sort.Float64s(finite)
		rank := func(q float64) float64 { return finite[max(int(math.Ceil(q*float64(len(finite)))), 1)-1] }
		return int64(len(finite)), rank(0.50), rank(0.90), finite[len(finite)-1]
	}
	rng := rand.New(rand.NewSource(1))
	for trial := range 3000 {
		size := 1 + trial%200
		if trial%500 == 0 {
			size = 10_000 + rng.Intn(10_000)
		}
		// At most size distinct values of either sign, often far fewer: runs
		// of duplicates.
		distinct, scale := 1+rng.Intn(size), rng.ExpFloat64()
		xs := make([]float64, size)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = []float64{math.Inf(1), math.NaN()}[rng.Intn(2)]
			default:
				xs[i] = float64(rng.Intn(distinct)-distinct/4) * scale
			}
		}
		wn, w50, w90, wmax := bySort(slices.Clone(xs))
		if n, p50, p90, max := SummarizeResiduals(slices.Clone(xs)); n != wn || p50 != w50 || p90 != w90 || max != wmax {
			t.Fatalf("trial %d (%d samples): %d/%g/%g/%g, sorting reads %d/%g/%g/%g", trial, size, n, p50, p90, max, wn, w50, w90, wmax)
		}
	}
}

// BenchmarkSummarizeResiduals prices one superstep's summary over 20k
// distinct residuals, the size of a gweb@0.5 PageRank step.
func BenchmarkSummarizeResiduals(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20_000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 1e-6
	}
	buf := make([]float64, len(xs))
	b.ResetTimer()
	for range b.N {
		copy(buf, xs)
		SummarizeResiduals(buf)
	}
}
