package span_test

import (
	"strings"
	"testing"
	"time"

	"cyclops/internal/obs/span"
)

// TestIDStructuralAndUnique pins the ID packing: identity is a pure function
// of (kind, step, worker) — no counters, no clocks — and distinct structural
// positions never collide.
func TestIDStructuralAndUnique(t *testing.T) {
	if span.ID(span.Compute, 3, 2) != span.ID(span.Compute, 3, 2) {
		t.Fatal("same structural position produced different IDs")
	}
	// The packing is pinned: recorded ids and parents are compared across
	// runs and builds.
	if got, want := span.ID(span.Send, 7, 2), int64(span.Send)<<56|8<<32|3<<16; got != want {
		t.Fatalf("ID(Send, 7, 2) = %#x, want %#x", got, want)
	}
	seen := map[int64]string{}
	for _, k := range []span.Kind{span.Run, span.Superstep, span.Parse, span.Compute,
		span.Serialize, span.Send, span.BarrierWait} {
		for _, step := range []int{-1, 0, 1, 100} {
			for _, worker := range []int{-1, 0, 3} {
				id := span.ID(k, step, worker)
				key := k.String() + "/" + string(rune(step+2)) + "/" + string(rune(worker+2))
				if prev, dup := seen[id]; dup {
					t.Fatalf("ID collision: %s and %s both pack to %d", prev, key, id)
				}
				seen[id] = key
			}
		}
	}
	if span.RunID() != span.ID(span.Run, -1, -1) {
		t.Error("RunID() diverged from ID(Run,-1,-1)")
	}
	if span.StepID(7) != span.ID(span.Superstep, 7, -1) {
		t.Error("StepID diverged")
	}
	if span.SendID(7, 2) != span.ID(span.Send, 7, 2) {
		t.Error("SendID diverged")
	}
}

// stepSpans builds one superstep's canonical span stream: per-worker spans
// then the Superstep span, the emission order EmitStepSpans promises.
func stepSpans(step int, wall time.Duration, workers int, units, msgs []int64, durs []time.Duration) []span.Span {
	var out []span.Span
	for w := 0; w < workers; w++ {
		out = append(out,
			span.Span{ID: span.ID(span.Compute, step, w), Kind: span.Compute,
				Step: step, Worker: w, Units: units[w], Dur: durs[w]},
			span.Span{ID: span.ID(span.Serialize, step, w), Kind: span.Serialize,
				Step: step, Worker: w, Dur: durs[w] / 10},
			span.Span{ID: span.ID(span.Send, step, w), Kind: span.Send,
				Step: step, Worker: w, Msgs: msgs[w], Dur: durs[w] / 4},
		)
	}
	out = append(out, span.Span{ID: span.StepID(step), Kind: span.Superstep,
		Step: step, Dur: wall})
	return out
}

func TestCriticalPathPicksDeterministicGatingWorker(t *testing.T) {
	// Worker 1 carries the largest deterministic load (units+msgs), even
	// though worker 0's measured duration is longer — gating must follow the
	// weights, not the clock.
	spans := stepSpans(0, 10*time.Millisecond, 3,
		[]int64{10, 50, 5}, []int64{1, 8, 2},
		[]time.Duration{9 * time.Millisecond, time.Millisecond, time.Millisecond})
	paths := span.CriticalPath(spans)
	if len(paths) != 1 {
		t.Fatalf("got %d path rows, want 1", len(paths))
	}
	p := paths[0]
	if p.Gating != 1 || p.Weight != 58 {
		t.Fatalf("gating = w%d weight %d, want w1 weight 58", p.Gating, p.Weight)
	}
	// The four columns account for the superstep wall exactly.
	if p.Wall() != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("path wall %d != superstep wall %d", p.Wall(), (10 * time.Millisecond).Nanoseconds())
	}
	wantCompute := time.Millisecond.Nanoseconds()
	if p.ComputeNs != wantCompute {
		t.Errorf("ComputeNs = %d, want gating worker's %d", p.ComputeNs, wantCompute)
	}
	if p.BarrierNs != p.Wall()-p.ComputeNs-p.SerializeNs-p.SendNs {
		t.Errorf("BarrierNs %d is not the wall remainder", p.BarrierNs)
	}

	// Ties break to the lowest worker id, deterministically.
	tied := stepSpans(1, time.Millisecond, 2,
		[]int64{7, 7}, []int64{0, 0},
		[]time.Duration{time.Microsecond, time.Microsecond})
	if got := span.CriticalPath(tied); len(got) != 1 || got[0].Gating != 0 {
		t.Fatalf("tie broke to %+v, want worker 0", got)
	}
}

func TestCriticalPathMultiStepAndGatingSequence(t *testing.T) {
	var spans []span.Span
	spans = append(spans, stepSpans(0, time.Millisecond, 2,
		[]int64{9, 1}, []int64{0, 0}, []time.Duration{time.Microsecond, time.Microsecond})...)
	spans = append(spans, stepSpans(1, time.Millisecond, 2,
		[]int64{1, 9}, []int64{0, 0}, []time.Duration{time.Microsecond, time.Microsecond})...)
	paths := span.CriticalPath(spans)
	if len(paths) != 2 {
		t.Fatalf("got %d rows, want 2", len(paths))
	}
	if got, want := span.GatingSequence(paths), "0:0 1:1"; got != want {
		t.Fatalf("GatingSequence = %q, want %q", got, want)
	}
}

func TestWriteWaterfallRendersStream(t *testing.T) {
	spans := []span.Span{
		{ID: span.RunID(), Kind: span.Run, Run: 1, Step: -1, Dur: 10 * time.Millisecond},
	}
	spans = append(spans, stepSpans(1, 2*time.Millisecond, 1,
		[]int64{5}, []int64{3}, []time.Duration{time.Millisecond})...)
	var sb strings.Builder
	span.WriteWaterfall(&sb, spans)
	out := sb.String()
	for _, want := range []string{"run 1", "superstep 1", "compute", "send", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q:\n%s", want, out)
		}
	}
}
