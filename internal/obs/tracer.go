package obs

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
	"time"

	"cyclops/internal/metrics"
)

// TracerOptions tunes a Tracer.
type TracerOptions struct {
	// Level is the minimum level emitted (default slog.LevelInfo). Worker
	// stats are logged at Debug; phases and supersteps at Info; slow phases
	// at Warn.
	Level slog.Leveler
	// SlowFactor k flags any phase slower than k× the trailing mean of that
	// phase's recent durations (default 3; <=1 disables the detector).
	SlowFactor float64
	// SlowMinSamples is how many observations a phase needs before the
	// detector can fire (default 4).
	SlowMinSamples int
	// SlowWindow is the trailing-mean window size (default 32).
	SlowWindow int
	// RingSize bounds the recent-event buffer (default 2048).
	RingSize int
}

func (o TracerOptions) normalize() TracerOptions {
	if o.Level == nil {
		o.Level = slog.LevelInfo
	}
	if o.SlowFactor == 0 {
		o.SlowFactor = 3
	}
	if o.SlowMinSamples <= 0 {
		o.SlowMinSamples = 4
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = 32
	}
	if o.RingSize <= 0 {
		o.RingSize = 2048
	}
	return o
}

// phaseWindow keeps a trailing window of durations for one (engine, phase).
type phaseWindow struct {
	samples []time.Duration
	next    int
	full    bool
	sum     time.Duration
}

func (p *phaseWindow) observe(d time.Duration) {
	if p.full {
		p.sum -= p.samples[p.next]
	}
	if len(p.samples) < cap(p.samples) {
		p.samples = p.samples[:len(p.samples)+1]
	}
	p.samples[p.next] = d
	p.sum += d
	p.next = (p.next + 1) % cap(p.samples)
	if p.next == 0 {
		p.full = true
	}
}

func (p *phaseWindow) count() int { return len(p.samples) }

func (p *phaseWindow) mean() time.Duration {
	if len(p.samples) == 0 {
		return 0
	}
	return p.sum / time.Duration(len(p.samples))
}

// Tracer is a structured event tracer implementing Hooks. Events are
// rendered as JSONL through log/slog with span-like fields (run → step →
// phase), mirrored into a ring buffer for the /trace endpoint, and a
// configurable slow-phase detector warns about any phase exceeding k× the
// trailing mean of its own recent history.
//
// A Tracer may outlive many runs (each OnRunStart opens a new run span) but
// narrates one run at a time.
type Tracer struct {
	log  *slog.Logger
	ring *Ring
	opts TracerOptions

	mu     sync.Mutex
	runSeq int64
	engine string
	start  time.Time
	slow   map[metrics.Phase]*phaseWindow
}

// NewTracer builds a tracer writing JSONL events to w (nil: ring buffer
// only).
func NewTracer(w io.Writer, opts TracerOptions) *Tracer {
	opts = opts.normalize()
	t := &Tracer{
		ring: NewRing(opts.RingSize),
		opts: opts,
		slow: make(map[metrics.Phase]*phaseWindow),
	}
	sink := io.Writer(&ringWriter{ring: t.ring})
	if w != nil {
		sink = io.MultiWriter(w, &ringWriter{ring: t.ring})
	}
	t.log = slog.New(slog.NewJSONHandler(&lockedWriter{w: sink}, &slog.HandlerOptions{
		Level: opts.Level,
	}))
	return t
}

// Ring exposes the recent-event buffer (for the /trace endpoint).
func (t *Tracer) Ring() *Ring { return t.ring }

// Logger exposes the underlying structured logger so callers (e.g. the
// harness narrating experiment boundaries) can emit their own events into
// the same stream and ring.
func (t *Tracer) Logger() *slog.Logger { return t.log }

// OnRunStart implements Hooks: opens a new run span.
func (t *Tracer) OnRunStart(info RunInfo) {
	t.mu.Lock()
	t.runSeq++
	run := t.runSeq
	t.engine = info.Engine
	t.start = time.Now()
	t.slow = make(map[metrics.Phase]*phaseWindow)
	t.mu.Unlock()
	t.log.Info("run-start",
		"span", "run", "run", run, "engine", info.Engine,
		"workers", info.Workers, "vertices", info.Vertices,
		"edges", info.Edges, "replicas", info.Replicas)
}

// OnSuperstepStart implements Hooks.
func (t *Tracer) OnSuperstepStart(step int) {
	run, engine := t.ident()
	t.log.Debug("superstep-start", "span", "superstep",
		"run", run, "engine", engine, "step", step)
}

// OnPhase implements Hooks: logs the phase duration and runs the slow-phase
// detector against the phase's trailing mean.
func (t *Tracer) OnPhase(step int, phase metrics.Phase, d time.Duration) {
	run, engine := t.ident()
	t.log.Debug("phase", "span", "phase",
		"run", run, "engine", engine, "step", step,
		"phase", phase.String(), "ns", d.Nanoseconds())

	if t.opts.SlowFactor <= 1 {
		return
	}
	t.mu.Lock()
	win := t.slow[phase]
	if win == nil {
		win = &phaseWindow{samples: make([]time.Duration, 0, t.opts.SlowWindow)}
		t.slow[phase] = win
	}
	n, mean := win.count(), win.mean()
	win.observe(d)
	t.mu.Unlock()

	if n >= t.opts.SlowMinSamples && mean > 0 &&
		float64(d) > t.opts.SlowFactor*float64(mean) {
		t.log.Warn("slow-phase", "span", "phase",
			"run", run, "engine", engine, "step", step,
			"phase", phase.String(), "ns", d.Nanoseconds(),
			"trailing_mean_ns", mean.Nanoseconds(),
			"factor", float64(d)/float64(mean))
	}
}

// OnSuperstep implements Hooks: narrates the record — per-worker shares and
// the traffic delta's totals and row sums at Debug (the full matrix is the
// /comm endpoint's job, heat rows and spans the Log's), each audited-invariant
// breach at Error with every structured field (a correctness event), and the
// superstep's aggregates at Info.
func (t *Tracer) OnSuperstep(rec *StepRecord) {
	run, engine := t.ident()
	step := rec.Step
	if t.log.Enabled(context.Background(), slog.LevelDebug) {
		for w := range rec.Units {
			t.log.Debug("worker", "span", "superstep",
				"run", run, "engine", engine, "step", step,
				"worker", w, "compute_units", rec.Units[w],
				"sent", rec.Sent[w], "received", rec.Recv[w],
				"queue_depth", rec.Batches[w])
		}
		t.log.Debug("comm", "span", "superstep",
			"run", run, "engine", engine, "step", step,
			"messages", rec.Comm.TotalMessages(), "bytes", rec.Comm.TotalBytes(),
			"egress", rec.Comm.Egress(), "ingress", rec.Comm.Ingress())
	}
	for _, v := range rec.Violations {
		t.log.Error("invariant-violation", "span", "superstep",
			"run", run, "engine", v.Engine, "step", v.Step,
			"worker", v.Worker, "vertex", v.Vertex,
			"kind", v.Kind, "detail", v.Detail)
	}
	s := &rec.Stats
	t.log.Info("superstep", "span", "superstep",
		"run", run, "engine", engine, "step", step,
		"active", s.Active, "changed", s.Changed,
		"messages", s.Messages, "redundant", s.RedundantMessages,
		"prs_ns", s.Durations[metrics.Parse].Nanoseconds(),
		"cmp_ns", s.Durations[metrics.Compute].Nanoseconds(),
		"snd_ns", s.Durations[metrics.Send].Nanoseconds(),
		"syn_ns", s.Durations[metrics.Sync].Nanoseconds())
}

// OnRecovery implements Hooks: a fault was absorbed by checkpoint rollback —
// the run survives, but degraded, so it logs at Warn.
func (t *Tracer) OnRecovery(e RecoveryEvent) {
	run, _ := t.ident()
	t.log.Warn("recovery", "span", "run",
		"run", run, "engine", e.Engine, "step", e.Step,
		"resumed_at", e.ResumedAt, "replayed", e.Replayed(),
		"attempt", e.Attempt, "cause", e.Cause)
}

// OnRunEnd implements Hooks: closes the run span.
func (t *Tracer) OnRunEnd(e RunEnd) {
	t.mu.Lock()
	elapsed := time.Duration(0)
	if !t.start.IsZero() {
		elapsed = time.Since(t.start)
	}
	run := t.runSeq
	engine := t.engine
	t.mu.Unlock()
	t.log.Info("run-end", "span", "run",
		"run", run, "engine", engine, "step", e.Step,
		"reason", e.Reason, "elapsed_ns", elapsed.Nanoseconds())
}

// ident reports the run being narrated.
func (t *Tracer) ident() (run int64, engine string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runSeq, t.engine
}

// ringWriter splits handler output into lines and appends them to the ring.
type ringWriter struct {
	ring    *Ring
	partial []byte
}

func (w *ringWriter) Write(p []byte) (int, error) {
	w.partial = append(w.partial, p...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		w.ring.Append(w.partial[:i])
		w.partial = w.partial[i+1:]
	}
	return len(p), nil
}

// lockedWriter serialises writes: slog handlers lock per-handler, but the
// multiwriter fan-out below them must also be atomic per event line.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
