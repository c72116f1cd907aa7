package obs

import (
	"time"

	"cyclops/internal/obs/span"
)

// This file is the obs side of causal span tracing: the span measurements a
// StepRecord carries and the pure function that turns them into the canonical
// span stream. The Log keeps the stream for /spans and the spans section.

// RunSpan builds an engine run's root span; dur is zero while the run is
// open. A consumer appends the closed one from the RunEnd event.
func RunSpan(run int64, dur time.Duration) span.Span {
	return span.Span{ID: span.RunID(), Run: run, Step: -1, Worker: -1,
		Kind: span.Run, Dur: dur}
}

// StepSpan builds a superstep's span while it is still open; start is the
// superstep's monotonic offset from the run start.
func StepSpan(run int64, step int, start time.Duration) span.Span {
	return span.Span{ID: span.StepID(step), Parent: span.RunID(), Run: run,
		Step: step, Worker: -1, Kind: span.Superstep, Start: start}
}

// StepSpanData is one superstep's span measurements, assembled by the kernel
// after the superstep's barriers. Per-worker slices are indexed by worker id.
type StepSpanData struct {
	Run  int64
	Step int
	// StepStart is the superstep's monotonic offset from the run start;
	// Wall is its accounted duration — the sum of the engine's phase
	// durations, i.e. exactly the numbers the timings section records for the
	// step, which is what lets the critpath section's columns reconcile with it.
	StepStart time.Duration
	Wall      time.Duration
	// Phase start offsets from the run start (zero when absent).
	ParseStart   time.Duration
	ComputeStart time.Duration
	SendStart    time.Duration
	// Measured per-worker phase durations. Parse may be nil for engines
	// without a distinct receive/parse phase.
	Parse   []time.Duration
	Compute []time.Duration
	Send    []time.Duration
	// SerializeNs is each worker's wire-serialisation share of its send
	// phase (nil or zero on transports that never encode).
	SerializeNs []int64
	// Units, Sent and Recv are the deterministic weights: edges scanned,
	// messages sent, messages received. Recv[w] is what worker w's drains
	// returned this superstep; who sent them is the StepRecord's Comm delta,
	// booked per (sender, receiver) pair at send time.
	Units []int64
	Sent  []int64
	Recv  []int64
}

// AppendStepSpans appends one superstep's measurements to dst as the canonical
// span stream: for each worker in ascending order its Parse (when present),
// Compute, Serialize, Send and BarrierWait spans, and finally the Superstep
// span itself — W×(4 or 5) + 1 spans. The order, IDs and parent links depend
// only on deterministic quantities, so the structure of the stream is
// byte-identical across same-seed runs; only Start/Dur carry wall clock. It
// reads d and allocates only what dst needs to grow.
func AppendStepSpans(dst []span.Span, d StepSpanData) []span.Span {
	stepID := span.StepID(d.Step)
	var totalUnits, totalSent int64
	for w := range d.Compute {
		var busy time.Duration
		if d.Parse != nil {
			busy += d.Parse[w]
			dst = append(dst, span.Span{ID: span.ID(span.Parse, d.Step, w),
				Parent: stepID, Run: d.Run, Step: d.Step, Worker: w,
				Kind: span.Parse, Msgs: d.Recv[w], Start: d.ParseStart, Dur: d.Parse[w]})
		}
		busy += d.Compute[w]
		totalUnits += d.Units[w]
		dst = append(dst, span.Span{ID: span.ID(span.Compute, d.Step, w),
			Parent: stepID, Run: d.Run, Step: d.Step, Worker: w,
			Kind: span.Compute, Units: d.Units[w], Start: d.ComputeStart, Dur: d.Compute[w]})
		var ser time.Duration
		if d.SerializeNs != nil {
			ser = time.Duration(d.SerializeNs[w])
		}
		sendDur := d.Send[w] - ser
		if sendDur < 0 {
			ser, sendDur = d.Send[w], 0
		}
		busy += d.Send[w]
		totalSent += d.Sent[w]
		dst = append(dst, span.Span{ID: span.ID(span.Serialize, d.Step, w),
			Parent: span.SendID(d.Step, w), Run: d.Run, Step: d.Step, Worker: w,
			Kind: span.Serialize, Start: d.SendStart, Dur: ser})
		dst = append(dst, span.Span{ID: span.SendID(d.Step, w),
			Parent: stepID, Run: d.Run, Step: d.Step, Worker: w,
			Kind: span.Send, Msgs: d.Sent[w], Start: d.SendStart, Dur: sendDur})
		wait := d.Wall - busy
		if wait < 0 {
			wait = 0
		}
		dst = append(dst, span.Span{ID: span.ID(span.BarrierWait, d.Step, w),
			Parent: stepID, Run: d.Run, Step: d.Step, Worker: w,
			Kind: span.BarrierWait, Start: d.StepStart, Dur: wait})
	}
	dst = append(dst, span.Span{ID: stepID, Parent: span.RunID(), Run: d.Run,
		Step: d.Step, Worker: -1, Kind: span.Superstep,
		Units: totalUnits, Msgs: totalSent, Start: d.StepStart, Dur: d.Wall})
	return dst
}
