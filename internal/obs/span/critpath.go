package span

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// StepPath is one superstep's critical-path attribution: the worker that
// gated the barrier and where its time went. Gating is decided by the
// deterministic per-worker weight (compute units + messages sent +
// messages received, ties to the lowest worker id), NOT by measured wall
// clock — so the gating worker, like the span structure, is byte-identical
// across same-seed runs. The _ns fields are the gating worker's measured
// durations and are quarantined like the timings section.
type StepPath struct {
	Step   int
	Gating int
	// Weight is the gating worker's deterministic load score.
	Weight int64
	// ComputeNs is the gating worker's parse+compute time (the paper's
	// "computation" side); SerializeNs and SendNs split its communication
	// side; BarrierNs is the superstep wall minus the gating worker's busy
	// time. The four columns sum to the superstep wall exactly — which is
	// how `cyclops-report show --critpath` reconciles against the timings section.
	ComputeNs   int64
	SerializeNs int64
	SendNs      int64
	BarrierNs   int64
}

// Wall is the superstep wall this path row accounts for.
func (p StepPath) Wall() int64 { return p.ComputeNs + p.SerializeNs + p.SendNs + p.BarrierNs }

// CriticalPath folds a span stream into per-superstep path rows, in stream
// order (a recovered run's replayed supersteps appear again, mirroring
// the series section). Spans must arrive in the canonical emission order: a
// superstep's worker spans first, then its Superstep span.
func CriticalPath(spans []Span) []StepPath {
	// One superstep's per-worker sums, truncated at every Superstep span and
	// re-zeroed by grow, so the stream reuses one set of slices.
	type acc struct {
		weight                   []int64
		compute, serialize, send []int64
	}
	var out []StepPath
	var cur acc
	grow := func(w int) {
		for len(cur.weight) <= w {
			cur.weight = append(cur.weight, 0)
			cur.compute = append(cur.compute, 0)
			cur.serialize = append(cur.serialize, 0)
			cur.send = append(cur.send, 0)
		}
	}
	for _, s := range spans {
		switch s.Kind {
		case Parse:
			grow(s.Worker)
			cur.weight[s.Worker] += s.Msgs
			cur.compute[s.Worker] += s.Dur.Nanoseconds()
		case Compute:
			grow(s.Worker)
			cur.weight[s.Worker] += s.Units
			cur.compute[s.Worker] += s.Dur.Nanoseconds()
		case Serialize:
			grow(s.Worker)
			cur.serialize[s.Worker] += s.Dur.Nanoseconds()
		case Send:
			grow(s.Worker)
			cur.weight[s.Worker] += s.Msgs
			cur.send[s.Worker] += s.Dur.Nanoseconds()
		case Superstep:
			gating, best := 0, int64(-1)
			for w, wt := range cur.weight {
				if wt > best {
					gating, best = w, wt
				}
			}
			p := StepPath{Step: s.Step, Gating: gating, Weight: max(best, 0)}
			if gating < len(cur.weight) {
				p.ComputeNs = cur.compute[gating]
				p.SerializeNs = cur.serialize[gating]
				p.SendNs = cur.send[gating]
			}
			p.BarrierNs = s.Dur.Nanoseconds() - p.ComputeNs - p.SerializeNs - p.SendNs
			out = append(out, p)
			cur = acc{cur.weight[:0], cur.compute[:0], cur.serialize[:0], cur.send[:0]}
		}
	}
	return out
}

// GatingSequence compresses path rows to the structural signature diffs
// compare: "step:gatingWorker" joined by spaces, durations excluded.
func GatingSequence(paths []StepPath) string {
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = fmt.Sprintf("%d:%d", p.Step, p.Gating)
	}
	return strings.Join(parts, " ")
}

// WriteWaterfall renders a plain-text per-superstep waterfall of a span
// stream: one block per superstep, one bar per worker span, scaled to the
// superstep wall.
func WriteWaterfall(w io.Writer, spans []Span) {
	const width = 40
	var step []Span
	flush := func(top Span) {
		fmt.Fprintf(w, "superstep %d  wall=%s\n", top.Step, top.Dur)
		wall := top.Dur
		if wall <= 0 {
			wall = 1
		}
		for _, s := range step {
			off := min(max(int(int64(width)*int64(s.Start-top.Start)/int64(wall)), 0), width-1)
			n := min(max(int(int64(width)*int64(s.Dur)/int64(wall)), 1), width-off)
			bar := strings.Repeat(" ", off) + strings.Repeat("#", n)
			fmt.Fprintf(w, "  w%-3d %-12s |%-*s| %s\n", s.Worker, s.Kind, width, bar, s.Dur.Round(time.Microsecond))
		}
		step = step[:0]
	}
	for _, s := range spans {
		switch s.Kind {
		case Run:
			fmt.Fprintf(w, "run %d  wall=%s\n", s.Run, s.Dur)
		case Superstep:
			flush(s)
		default:
			step = append(step, s)
		}
	}
}
