package obs

import (
	"math"
	"slices"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	n := Nop{}
	if Multi(nil, n) != Hooks(n) {
		t.Error("Multi with one non-nil hook should return it unwrapped")
	}
	a, b := NewLog(), NewLog()
	Multi(a, Nop{}, b).OnRunStart(RunInfo{Engine: "x", Workers: 1})
	if a.runs != 1 || b.runs != 1 {
		t.Errorf("Multi fanned OnRunStart out to %d and %d logs, want 1 and 1", a.runs, b.runs)
	}
}

// TestSlowPhases pins the slow-phase detector: a phase warns when it ran more
// than the factor times its trailing mean over the 32 rows before, once 4 of
// them ran it; a zero duration is neither a sample nor a candidate.
func TestSlowPhases(t *testing.T) {
	const ms = time.Millisecond
	// rows gives phase p the durations ds, one row each.
	rows := func(p metrics.Phase, ds ...time.Duration) []metrics.StepStats {
		out := make([]metrics.StepStats, len(ds))
		for i, d := range ds {
			out[i].Step, out[i].Durations[p] = i, d
		}
		return out
	}
	repeat := func(d time.Duration, n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = d
		}
		return out
	}
	all := []metrics.Phase{metrics.Parse, metrics.Compute, metrics.Send, metrics.Sync}
	cmp := metrics.Compute
	both := rows(cmp, ms, ms, ms, ms, 10*ms)
	for i := range both {
		both[i].Durations[metrics.Parse] = both[i].Durations[cmp] / 10
	}
	cases := []struct {
		name   string
		rows   []metrics.StepStats
		order  []metrics.Phase
		factor float64
		want   []slowPhase
	}{
		{"warm-up", rows(cmp, ms, ms, ms, 10*ms), all, 3, nil},
		{"steady", rows(cmp, repeat(ms, 40)...), all, 3, nil},
		{"outlier", rows(cmp, ms, ms, 2*ms, 2*ms, 15*ms), all, 3, []slowPhase{{cmp, 15 * ms, 1500 * time.Microsecond}}},
		{"factor-1", rows(cmp, ms, ms, ms, ms, 10*ms), all, 1, nil},
		{"factor-negative", rows(cmp, ms, ms, ms, ms, 10*ms), all, -2, nil},
		{"32-rows-back-counts", rows(cmp, append(append([]time.Duration{100 * ms}, repeat(ms, 31)...), 4*ms)...), all, 3, nil},
		{"33-rows-back-left", rows(cmp, append(append([]time.Duration{100 * ms}, repeat(ms, 32)...), 4*ms)...), all, 3,
			[]slowPhase{{cmp, 4 * ms, ms}}},
		{"zero-not-a-sample", rows(cmp, 0, 0, 0, ms, 10*ms), all, 3, nil},
		{"zeros-skipped-in-mean", rows(cmp, ms, 0, ms, 0, ms, 0, ms, 0, 4*ms), all, 3, []slowPhase{{cmp, 4 * ms, ms}}},
		{"zero-not-a-candidate", rows(cmp, ms, ms, ms, ms, 0), all, 3, nil},
		{"call-order", both, []metrics.Phase{cmp, metrics.Parse}, 3,
			[]slowPhase{{cmp, 10 * ms, ms}, {metrics.Parse, ms, ms / 10}}},
	}
	for _, c := range cases {
		got := slowPhases(c.rows, len(c.rows)-1, c.order, c.factor)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: slowPhases = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestImbalanceFinite pins the edge cases the skew coefficients must survive:
// every input shape yields a finite value, and the degenerate shapes —
// no workers, one worker, uniformly idle — are all "balanced" (exactly 1).
func TestImbalanceFinite(t *testing.T) {
	cases := []struct {
		name string
		xs   []int64
		want float64
	}{
		{"nil", nil, 1},
		{"empty", []int64{}, 1},
		{"single-worker", []int64{42}, 1},
		{"single-worker-idle", []int64{0}, 1},
		{"all-zero", []int64{0, 0, 0, 0}, 1},
		{"balanced", []int64{5, 5, 5, 5}, 1},
		{"skewed", []int64{10, 0, 0, 0}, 4},
		{"negative-sum", []int64{-3, 1}, 1},
	}
	for _, c := range cases {
		got := imbalance(c.xs)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("imbalance(%s) = %v; must be finite", c.name, got)
		}
		if got != c.want {
			t.Errorf("imbalance(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLogSpanRingBound: a Log on its own keeps at most spanLimit spans,
// discarding the oldest; a Recorder's Log keeps the whole stream, because
// the spans section is written from it.
func TestLogSpanRingBound(t *testing.T) {
	busy := []time.Duration{time.Microsecond, time.Microsecond}
	rec := &StepRecord{Spans: StepSpanData{Run: 1, Compute: busy, Send: busy,
		Units: []int64{1, 1}, Sent: []int64{1, 1}, Recv: []int64{0, 0}}}
	const perStep = 2*4 + 1
	steps := spanLimit/perStep + 10

	ring, all := NewLog(), NewLog()
	all.allSpans = true
	for _, l := range []*Log{ring, all} {
		l.OnRunStart(RunInfo{Run: 1, Engine: "ring", Workers: 2})
		for s := 0; s < steps; s++ {
			rec.Step, rec.Spans.Step = s, s
			l.OnSuperstep(rec)
			if !l.allSpans && len(l.spans) > spanLimit {
				t.Fatalf("superstep %d: %d spans held, bound is %d", s, len(l.spans), spanLimit)
			}
		}
	}
	if n := len(all.spans); n != steps*perStep {
		t.Errorf("unbounded log holds %d spans, want %d", n, steps*perStep)
	}
	// The ring dropped its oldest half once and still ends on the newest span.
	if n := len(ring.spans); n >= steps*perStep || n < spanLimit/2 {
		t.Errorf("ring holds %d spans", n)
	}
	if last := ring.spans[len(ring.spans)-1]; last.Kind != span.Superstep || last.Step != steps-1 {
		t.Errorf("ring's newest span = %+v", last)
	}
	if first := ring.spans[0]; first.Step == 0 {
		t.Errorf("ring still holds superstep 0: %+v", first)
	}
}
