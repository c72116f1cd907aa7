package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Append([]byte(fmt.Sprintf("line-%d", i)))
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	lines := r.Lines()
	want := []string{"line-2", "line-3", "line-4"}
	for i, w := range want {
		if string(lines[i]) != w {
			t.Errorf("lines[%d] = %q, want %q", i, lines[i], w)
		}
	}
}

func TestRingWriteTo(t *testing.T) {
	r := NewRing(8)
	r.Append([]byte("a"))
	r.Append([]byte("b"))
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\nb\n" {
		t.Fatalf("WriteTo = %q", buf.String())
	}
}

func TestTracerEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{Level: slog.LevelDebug})

	tr.OnRunStart(RunInfo{Engine: "cyclops", Workers: 4, Vertices: 100, Edges: 400, Replicas: 37})
	tr.OnSuperstepStart(0)
	tr.OnPhase(0, metrics.Compute, 3*time.Millisecond)
	tr.OnSuperstep(&StepRecord{Step: 0, Stats: metrics.StepStats{Step: 0, Active: 100, Messages: 37},
		Units: []int64{10}, Sent: []int64{5}, Recv: []int64{2}, Active: []int64{100}, Batches: []int64{1},
		Violations: []Violation{{Engine: "cyclops", Kind: ViolationReplicaDesync}}})
	tr.OnRunEnd(RunEnd{Step: 1, Reason: ReasonNoActive})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d event lines, want 8:\n%s", len(lines), buf.String())
	}
	// Every line must be valid JSON with msg + span fields.
	msgs := make([]string, 0, len(lines))
	for _, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", l, err)
		}
		if _, ok := ev["span"]; !ok {
			t.Errorf("event %q has no span field", l)
		}
		msgs = append(msgs, ev["msg"].(string))
	}
	want := []string{"run-start", "superstep-start", "phase", "worker", "comm",
		"invariant-violation", "superstep", "run-end"}
	for i, w := range want {
		if msgs[i] != w {
			t.Errorf("event %d = %q, want %q", i, msgs[i], w)
		}
	}
	// The ring must hold the same events.
	if tr.Ring().Len() != 8 {
		t.Errorf("ring holds %d events, want 8", tr.Ring().Len())
	}
}

func TestTracerSlowPhaseDetector(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{
		Level: slog.LevelWarn, SlowFactor: 2, SlowMinSamples: 3,
	})
	tr.OnRunStart(RunInfo{Engine: "cyclops", Workers: 1})
	buf.Reset()

	// Steady phases: no warning.
	for i := 0; i < 5; i++ {
		tr.OnPhase(i, metrics.Compute, 10*time.Millisecond)
	}
	if buf.Len() != 0 {
		t.Fatalf("steady phases produced output: %s", buf.String())
	}
	// A 10x outlier beyond the warm-up must warn.
	tr.OnPhase(5, metrics.Compute, 100*time.Millisecond)
	if !strings.Contains(buf.String(), "slow-phase") {
		t.Fatalf("outlier did not trigger slow-phase: %s", buf.String())
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &ev); err != nil {
		t.Fatalf("slow-phase event not JSON: %v", err)
	}
	if ev["phase"] != "CMP" {
		t.Errorf("slow-phase phase = %v, want CMP", ev["phase"])
	}
	if f, _ := ev["factor"].(float64); f < 2 {
		t.Errorf("slow-phase factor = %v, want >= 2", ev["factor"])
	}
}

func TestTracerSeparateRunsResetDetector(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{Level: slog.LevelWarn, SlowFactor: 2, SlowMinSamples: 3})
	tr.OnRunStart(RunInfo{Engine: "a"})
	for i := 0; i < 5; i++ {
		tr.OnPhase(i, metrics.Compute, time.Millisecond)
	}
	// New run: the old trailing mean must not leak into this run.
	tr.OnRunStart(RunInfo{Engine: "b"})
	buf.Reset()
	tr.OnPhase(0, metrics.Compute, 100*time.Millisecond)
	if strings.Contains(buf.String(), "slow-phase") {
		t.Fatalf("detector state leaked across runs: %s", buf.String())
	}
}

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
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{})
	m := Multi(tr, Nop{})
	m.OnRunStart(RunInfo{Engine: "x", Workers: 1})
	if !strings.Contains(buf.String(), "run-start") {
		t.Error("Multi did not fan out to the tracer")
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
// spans.csv is written from it.
func TestLogSpanRingBound(t *testing.T) {
	busy := []time.Duration{time.Microsecond, time.Microsecond}
	rec := &StepRecord{Spans: StepSpanData{Run: 1, Compute: busy, Send: busy,
		Units: []int64{1, 1}, Sent: []int64{1, 1}, Recv: []int64{0, 0}, Deliveries: make([][]span.Delivery, 2)}}
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
