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
	"sort"
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
// It sorts samples in place; non-finite values (an SSSP vertex leaving its
// +Inf initial distance, a NaN from a degenerate update) are ignored so the
// quantiles stay meaningful and serialisable.
func (s *StepStats) SetResiduals(samples []float64) {
	s.ResidualN, s.ResidualP50, s.ResidualP90, s.ResidualMax = SummarizeResiduals(samples)
}

// SummarizeResiduals reports the count, median, 90th percentile
// (nearest-rank) and maximum of the finite values in samples, sorting the
// slice in place. Everything is zero for an empty (or all-non-finite) set.
func SummarizeResiduals(samples []float64) (n int64, p50, p90, max float64) {
	finite := samples[:0]
	for _, x := range samples {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			finite = append(finite, x)
		}
	}
	if len(finite) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(finite)
	rank := func(q float64) float64 {
		// Nearest-rank quantile: ceil(q*n) clamped into [1, n].
		r := int(math.Ceil(q * float64(len(finite))))
		if r < 1 {
			r = 1
		}
		return finite[r-1]
	}
	return int64(len(finite)), rank(0.50), rank(0.90), finite[len(finite)-1]
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
