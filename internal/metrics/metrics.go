// Package metrics records what the paper's evaluation section measures: the
// per-superstep phase breakdown (PRS / CMP / SND / SYN of Figure 10(1)),
// active-vertex and message counts (Figures 10(2), 10(3)), redundant-message
// ratios (Figure 3(2)), and a deterministic cost model that converts those
// counts into a modelled execution time so the speedup *shapes* of Figures 9,
// 11(3) and 12 reproduce even on hosts with few cores.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"
)

// Phase indexes the four per-superstep phases of §3.5.
type Phase int

const (
	// Parse is message parsing (PRS): draining queues and grouping messages
	// per destination vertex. Cyclops has no parse phase — receivers apply
	// sync messages directly.
	Parse Phase = iota
	// Compute is vertex computation (CMP).
	Compute
	// Send is message sending (SND), including serialisation and enqueueing.
	Send
	// Sync is the global barrier (SYN).
	Sync

	numPhases
)

// String implements fmt.Stringer with the paper's labels.
func (p Phase) String() string {
	switch p {
	case Parse:
		return "PRS"
	case Compute:
		return "CMP"
	case Send:
		return "SND"
	case Sync:
		return "SYN"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// StepStats aggregates one superstep.
type StepStats struct {
	Step int
	// Active is the number of vertices that executed compute this superstep.
	Active int64
	// Changed is how many computed vertices changed their value (needs the
	// engine's Equal hook; equals Active when the hook is absent).
	Changed int64
	// Messages is the number of data messages sent this superstep.
	Messages int64
	// RedundantMessages counts messages sent by vertices whose value did not
	// change — the wasted traffic of Figure 3(2).
	RedundantMessages int64
	// ComputeUnitsMax is the max over workers of edges scanned in compute;
	// the critical path of the CMP phase. The gas engine fills it, SendMax
	// and RecvMax with per-worker means instead (total / workers), and prices
	// its model time on those means.
	ComputeUnitsMax int64
	// SendMax / RecvMax are the max over workers of messages sent/received
	// (gas: the mean, see ComputeUnitsMax).
	SendMax int64
	RecvMax int64
	// ResidualN, ResidualP50, ResidualP90 and ResidualMax summarise the
	// distribution of per-vertex residuals (|Δvalue| as defined by the
	// engine's Residual hook) over the vertices that published this
	// superstep — the convergence telemetry of Figure 3: the residual
	// quantiles show *how far* the computation still is from its fixpoint,
	// not just how many vertices moved. All zero when no Residual hook is
	// configured.
	ResidualN   int64
	ResidualP50 float64
	ResidualP90 float64
	ResidualMax float64
	// Durations records wall time per phase.
	Durations [numPhases]time.Duration
	// ModelNanos is the engine's cost-model estimate for this superstep.
	ModelNanos float64
}

// RedundantRatio is the share of this superstep's messages sent by vertices
// whose value did not change (Figure 3(2)); zero when nothing was sent.
func (s StepStats) RedundantRatio() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.RedundantMessages) / float64(s.Messages)
}

// SetResiduals folds a sample set of per-vertex residuals into the stats.
// It reorders samples in place; non-finite values (an SSSP vertex leaving its
// +Inf initial distance, a NaN from a degenerate update) are ignored so the
// quantiles stay meaningful and serialisable.
func (s *StepStats) SetResiduals(samples []float64) {
	s.ResidualN, s.ResidualP50, s.ResidualP90, s.ResidualMax = SummarizeResiduals(samples)
}

// SummarizeResiduals reports the count, median, 90th percentile
// (nearest-rank) and maximum of the finite values in samples, reordering the
// slice in place: the values sorting would read, found by selection in O(n).
// Everything is zero for an empty (or all-non-finite) set.
func SummarizeResiduals(samples []float64) (n int64, p50, p90, pmax float64) {
	finite, lo, hi := samples[:0], uint64(math.MaxUint64), uint64(0)
	for _, x := range samples {
		if x-x == 0 { // finite: ±Inf and NaN give NaN
			finite = append(finite, x)
			k := orderKey(x)
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	if len(finite) == 0 {
		return 0, 0, 0, 0
	}
	// Nearest-rank quantile: ceil(q*n) clamped into [1, n], 0-based here.
	rank := func(q float64) int { return int(math.Max(math.Ceil(q*float64(len(finite))), 1)) - 1 }
	p50, p90 = selectRanks(finite, [2]uint64{lo, hi}, rank(0.50), rank(0.90))
	return int64(len(finite)), p50, p90, fromOrderKey(hi)
}

// selectRanks returns the values sorting xs would put at ranks r0 ≤ r1,
// reordering xs, given the least and greatest of their order keys: a radix
// selection. Each level spreads [lo, hi] over up to 2048 buckets, counts them
// and moves the bucket holding each rank aside, two passes whose branches are
// predictable, then recurses into those buckets, each 2048 times narrower. A
// run of equal values (zeros, community detection's 0/1) costs one level.
func selectRanks(xs []float64, keys [2]uint64, r0, r1 int) (float64, float64) {
	lo, hi := keys[0], keys[1]
	if lo == hi {
		return fromOrderKey(lo), fromOrderKey(lo)
	}
	shift := max(bits.Len64(hi-lo)-11, 0)
	bucket := func(x float64) int { return int((orderKey(x) - lo) >> shift) }
	var count [2048]int32
	for _, x := range xs {
		count[bucket(x)]++
	}
	d0, d1, below0, below1 := -1, -1, 0, 0 // the ranks' buckets, and the values below each
	for d, below := 0, 0; d1 < 0; d++ {
		next := below + int(count[d])
		if d0 < 0 && r0 < next {
			d0, below0 = d, below
		}
		if r1 < next {
			d1, below1 = d, below
		}
		below = next
	}
	a, i, b := 0, 0, len(xs) // xs[:a] is bucket d0, xs[b:] bucket d1 ≠ d0
	for i < b {
		switch bucket(xs[i]) {
		case d0:
			xs[a], xs[i] = xs[i], xs[a]
			a, i = a+1, i+1
		case d1:
			b--
			xs[b], xs[i] = xs[i], xs[b]
		default:
			i++
		}
	}
	if d0 == d1 {
		return selectRanks(xs[:a], keyRange(xs[:a]), r0-below0, r1-below0)
	}
	v0, _ := selectRanks(xs[:a], keyRange(xs[:a]), r0-below0, r0-below0)
	_, v1 := selectRanks(xs[b:], keyRange(xs[b:]), r1-below1, r1-below1)
	return v0, v1
}

// keyRange returns the least and greatest order key in xs.
func keyRange(xs []float64) [2]uint64 {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, x := range xs {
		lo, hi = min(lo, orderKey(x)), max(hi, orderKey(x))
	}
	return [2]uint64{lo, hi}
}

// orderKey maps a finite float64 to a uint64 that orders as it does: the sign
// bit set on a positive value, every bit flipped on a negative one.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// fromOrderKey inverts orderKey.
func fromOrderKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// Trace collects a full run.
type Trace struct {
	Engine  string
	Workers int
	Steps   []StepStats
}

// Append adds one superstep record.
func (t *Trace) Append(s StepStats) { t.Steps = append(t.Steps, s) }

// TotalDuration sums wall time across phases and supersteps.
func (t *Trace) TotalDuration() time.Duration {
	var total time.Duration
	for _, s := range t.Steps {
		for _, d := range s.Durations {
			total += d
		}
	}
	return total
}

// ModelTime sums the cost-model estimates (nanoseconds).
func (t *Trace) ModelTime() float64 {
	var total float64
	for _, s := range t.Steps {
		total += s.ModelNanos
	}
	return total
}

// TotalMessages sums messages across supersteps.
func (t *Trace) TotalMessages() int64 {
	var total int64
	for _, s := range t.Steps {
		total += s.Messages
	}
	return total
}

// PhaseTotals sums wall time per phase.
func (t *Trace) PhaseTotals() [4]time.Duration {
	var totals [4]time.Duration
	for _, s := range t.Steps {
		for p, d := range s.Durations {
			totals[p] += d
		}
	}
	return totals
}

// PhaseRatios returns each phase's share of total wall time.
func (t *Trace) PhaseRatios() [4]float64 {
	totals := t.PhaseTotals()
	var sum time.Duration
	for _, d := range totals {
		sum += d
	}
	var ratios [4]float64
	if sum == 0 {
		return ratios
	}
	for p, d := range totals {
		ratios[p] = float64(d) / float64(sum)
	}
	return ratios
}

// String renders a compact multi-line summary for logs and the CLI,
// including the phase breakdown of Figure 10(1).
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d workers, %d supersteps, %d msgs, wall %v, model %.2fms",
		t.Engine, t.Workers, len(t.Steps), t.TotalMessages(),
		t.TotalDuration().Round(time.Microsecond), t.ModelTime()/1e6)
	ratios := t.PhaseRatios()
	b.WriteString("\n  phases:")
	for p := Phase(0); p < numPhases; p++ {
		fmt.Fprintf(&b, " %s %.1f%%", p, ratios[p]*100)
	}
	return b.String()
}
