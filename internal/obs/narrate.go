package obs

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"time"

	"cyclops/internal/metrics"
)

// The narration is the Log told as JSONL events: -verbose prints each one as
// it is logged, /trace renders the latest run's from the retained rows, and
// both go through the same encoder, so a finished run's /trace body is the
// lines -verbose printed for it. Per run: run-start, then per superstep any
// slow-phase warnings, any invariant-violation errors and the superstep line,
// a recovery warning after the superstep that faulted, and run-end.

// Slow-phase detection: a phase is slow when it ran more than the factor
// times the mean of its durations over the slowWindow rows before, once
// slowWarmup of those rows ran it. A zero duration means the phase did not
// run, so it is neither a sample nor a candidate.
const (
	slowWindow = 32
	slowWarmup = 4
)

// slowPhase is one phase the detector flags.
type slowPhase struct {
	phase   metrics.Phase
	d, mean time.Duration
}

// slowPhases evaluates row i of a run's rows, phases in the given order; a
// factor ≤ 1 disables the detector.
func slowPhases(rows []metrics.StepStats, i int, order []metrics.Phase, factor float64) []slowPhase {
	if factor <= 1 {
		return nil
	}
	var slow []slowPhase
	for _, p := range order {
		d := rows[i].Durations[p]
		if d == 0 {
			continue
		}
		var sum time.Duration
		n := 0
		for _, r := range rows[max(0, i-slowWindow):i] {
			if s := r.Durations[p]; s != 0 {
				sum, n = sum+s, n+1
			}
		}
		if n < slowWarmup {
			continue
		}
		if mean := sum / time.Duration(n); float64(d) > factor*float64(mean) {
			slow = append(slow, slowPhase{p, d, mean})
		}
	}
	return slow
}

// event encodes one narration line.
func event(h slog.Handler, at time.Time, level slog.Level, msg string, args ...any) {
	r := slog.NewRecord(at, level, msg, 0)
	r.Add(args...)
	h.Handle(context.Background(), r) //nolint:errcheck // best-effort narration
}

// narrateStart, narrateStep and narrateEnd tell one event each, narrateStep
// with its superstep's warnings, errors and recovery. Caller holds mu.
func (l *Log) narrateStart(h slog.Handler) {
	i := &l.info
	event(h, l.started, slog.LevelInfo, "run-start", "span", "run", "run", l.runs,
		"engine", i.Engine, "workers", i.Workers, "vertices", i.Vertices,
		"edges", i.Edges, "replicas", i.Replicas)
}

func (l *Log) narrateStep(h slog.Handler, i int) {
	s, st, engine := &l.stats[i], &l.steps[i], l.info.Engine
	for _, p := range slowPhases(l.stats, i, l.order, l.slow) {
		event(h, st.at, slog.LevelWarn, "slow-phase", "span", "phase",
			"run", l.runs, "engine", engine, "step", s.Step,
			"phase", p.phase.String(), "ns", p.d.Nanoseconds(),
			"trailing_mean_ns", p.mean.Nanoseconds(), "factor", float64(p.d)/float64(p.mean))
	}
	for _, v := range st.violations {
		event(h, st.at, slog.LevelError, "invariant-violation", "span", "superstep",
			"run", l.runs, "engine", v.Engine, "step", v.Step,
			"worker", v.Worker, "vertex", v.Vertex, "kind", v.Kind, "detail", v.Detail)
	}
	d := &s.Durations
	event(h, st.at, slog.LevelInfo, "superstep", "span", "superstep",
		"run", l.runs, "engine", engine, "step", s.Step,
		"active", s.Active, "changed", s.Changed,
		"messages", s.Messages, "redundant", s.RedundantMessages,
		"prs_ns", d[metrics.Parse].Nanoseconds(), "cmp_ns", d[metrics.Compute].Nanoseconds(),
		"snd_ns", d[metrics.Send].Nanoseconds(), "syn_ns", d[metrics.Sync].Nanoseconds())
	// A fault absorbed by checkpoint rollback leaves the run alive but
	// degraded, so it is a warning.
	if r := st.recovery; r != nil {
		event(h, st.at, slog.LevelWarn, "recovery", "span", "run",
			"run", l.runs, "engine", r.Engine, "step", r.Step,
			"resumed_at", r.ResumedAt, "replayed", r.Replayed(),
			"attempt", r.Attempt, "cause", r.Cause)
	}
}

func (l *Log) narrateEnd(h slog.Handler) {
	event(h, l.endedAt, slog.LevelInfo, "run-end", "span", "run",
		"run", l.runs, "engine", l.info.Engine, "step", l.ended.Step,
		"reason", l.ended.Reason, "elapsed_ns", l.endedAt.Sub(l.started).Nanoseconds())
}

// WriteTrace renders the latest run's narration so far, one JSON line per
// event: the /trace body.
func (l *Log) WriteTrace(w io.Writer) error {
	var b bytes.Buffer
	h := slog.NewJSONHandler(&b, nil)
	l.mu.Lock()
	if l.runs > 0 {
		l.narrateStart(h)
		for i := range l.steps {
			l.narrateStep(h, i)
		}
		if l.done {
			l.narrateEnd(h)
		}
	}
	l.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}
