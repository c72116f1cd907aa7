// Package superstep is the one run loop under the bsp, cyclops and gas
// engines. What the paper contributes lives inside each engine's PRS / CMP /
// SND / SYN phase bodies; everything around them is written here once: the
// OnRunStart…OnRunEnd bracket, the superstep loop, the per-worker fan-out with
// wall and busy timing, the engine's checkpoints and the barrier-time fault →
// restore → replay protocol of §3.6, audit failure, and the single point that
// hands a superstep's counters, traffic-matrix delta and span measurements to
// the observers as one obs.StepRecord. Shell (shell.go) is the same for each
// engine's construction and Restore. DESIGN.md §4.1 is the contract.
package superstep

import (
	"fmt"
	"sync"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/transport"
)

// Link is the non-generic half of transport.Interface.
type Link interface {
	SerializeNanos(from int) int64
	Matrix() *transport.Matrix
	Err() error
}

// Injector is the part of fault.Injector the kernel drives. Its Reset is a
// transport method, reached through every Restore's Shell.Rewind.
type Injector interface {
	BeginStep(step int)
}

// maxRecoveries bounds recovery attempts per run; a fault beyond the budget
// fails the run with the underlying transport error.
const maxRecoveries = 3

// Config is what an engine knows about a run before its first superstep.
type Config struct {
	Name              string // prefixes the run's errors: "bsp", "cyclops", "gas"
	Workers, Vertices int
	Hooks             obs.Hooks // nil: observation off, no span or heat bookkeeping
	Link              Link
	Injector          Injector // nil unless the engine runs under a fault plan
	Trace             *metrics.Trace
	// Step is the engine's superstep counter: the kernel advances it, a
	// restore rewinds it. RunSeq numbers the engine's observed runs (the span
	// stream's Run id), so a restored engine's second Run stays distinct.
	Step            *int
	RunSeq          *int64
	MaxSupersteps   int
	CheckpointEvery int
	Checkpoints     Checkpoints        // nil: none, and any transport fault fails the run
	Info            func() obs.RunInfo // for OnRunStart; only called with Hooks set
	Owner           func(v int) int    // vertex → its master's worker (hot-set rows)
	// Residuals are the engine's per-worker residual samples: the kernel
	// empties them before each superstep and folds them into
	// StepStats.SetResiduals after Sync, inside the timed SYN.
	Residuals [][]float64
}

// PhaseSet is what an engine supplies per Run, built once: closures over its
// own state and the Kernel's Counters. Only Step and Sync are required.
type PhaseSet struct {
	// Begin runs at the top of a superstep, after the injector is armed and
	// before the superstep is announced; false ends the run (ReasonNoActive).
	// gas decides here; bsp and cyclops after the barrier, through Pending.
	Begin func() bool
	// Step runs the superstep's parallel phases through Kernel.Phase, in the
	// engine's own order, filling Counters; it returns what its auditor found.
	Step func() []obs.Violation
	// Sync is the barrier's sequential bookkeeping, timed as the SYN phase:
	// fold aggregates, swap activation, price the superstep. stats arrives
	// with Active, Changed, Messages and RedundantMessages summed from
	// Counters; Sync fills what the engine prices its own way.
	Sync func(stats *metrics.StepStats)
	// OnStep runs after each barrier, once the superstep is known good.
	OnStep func(step int)
	// Pending reports how many vertices are due next superstep; zero ends
	// the run with ReasonNoActive. Halt is the engine's extra test on top.
	Pending func() int64
	Halt    func(step int, pending int64) bool
}

// Checkpoints is a run's checkpoint store as the kernel drives it (§3.6):
// Save persists the engine's state as of the start of superstep step, Recover
// restores the newest save that loads, rewinding *Config.Step.
type Checkpoints interface {
	Save(step int) error
	Recover() error
}

// Counters is a run's one per-worker book: phase bodies write slot w from
// worker w's goroutine, the kernel zeroes the per-worker rows at the top of
// each superstep, folds Active, Changed, Sent and Redundant into StepStats
// after the barrier and hands the rows to the observers.
type Counters struct {
	Units     []int64 // edges scanned in compute
	Active    []int64 // vertices that computed
	Changed   []int64 // vertices whose value changed
	Sent      []int64 // messages sent (logical)
	Redundant []int64 // messages that re-sent an unchanged value
	Recv      []int64 // messages drained (booked by Drain)
	Sync      []int64 // replica-sync share of Sent (heat column)
	// Wire, when an engine allocates (and fills) it, replaces Sent as the span
	// stream's send weight (bsp: post-combiner envelopes).
	Wire []int64
	// HeatMsgs and HeatUnits are cumulative per-vertex counters, nil with
	// Hooks off. Each vertex has one writer per phase round.
	HeatMsgs, HeatUnits []int64
	// Busy[p][w] is worker w's time inside phase p's rounds, nil with Hooks
	// off. An engine that sends inside its Compute rounds (gas) books that
	// share into Busy[metrics.Send] itself; the kernel splits it back out.
	Busy [metrics.Sync][]time.Duration
}

// Kernel runs one engine Run. Build it with New, then call Run once.
type Kernel struct {
	Counters
	cfg  Config
	slab []int64 // backs the seven always-present Counters rows
	team *Team   // Phase's fan-out over the workers

	runStart time.Time
	runWall  time.Duration
	stats    metrics.StepStats
	// rec is the one value observers get per superstep, reused across the run;
	// its per-worker rows alias Counters. nil with Hooks off.
	rec      *obs.StepRecord
	ran      [metrics.Sync]bool          // phases run this superstep
	starts   [metrics.Sync]time.Duration // and their offsets from runStart
	serNs0   []int64
	prevComm transport.MatrixSnapshot // cumulative traffic at the last barrier
	resAll   []float64                // Residuals' rows, joined for SetResiduals
}

// New allocates a run's scratch; the loop allocates no bookkeeping after it.
func New(cfg Config) *Kernel {
	n := cfg.Workers
	k := &Kernel{cfg: cfg, team: NewTeam(n), slab: make([]int64, 7*n)}
	row := func(i int) []int64 { return k.slab[i*n : (i+1)*n : (i+1)*n] }
	k.Units, k.Active, k.Changed, k.Sent = row(0), row(1), row(2), row(3)
	k.Redundant, k.Recv, k.Sync = row(4), row(5), row(6)
	if cfg.Hooks != nil {
		k.HeatMsgs = make([]int64, cfg.Vertices)
		k.HeatUnits = make([]int64, cfg.Vertices)
		for p := range k.Busy {
			k.Busy[p] = make([]time.Duration, n)
		}
		k.serNs0 = make([]int64, n)
		k.rec = &obs.StepRecord{Units: k.Units, Active: k.Active, Sent: k.Sent, Recv: k.Recv,
			Sync: k.Sync, HeatMsgs: k.HeatMsgs, HeatUnits: k.HeatUnits, Owner: cfg.Owner}
		k.rec.Spans.SerializeNs = make([]int64, n)
	}
	return k
}

// Drain is worker w's one receive: it drains w's inbox on tr and books the
// messages the batches hold into Recv. Call it from w's goroutine; the
// batches are tr.Drain's, valid until w's next Drain. Who sent them is not
// kept here: the transport's Matrix books every (sender, receiver) pair.
func Drain[M any](k *Kernel, tr transport.Interface[M], w int) [][]M {
	batches := tr.Drain(w)
	for _, b := range batches {
		k.Recv[w] += int64(len(b))
	}
	return batches
}

// Phase runs each round on every worker behind its own barrier, worker 0 on
// the calling goroutine, times the whole as phase p and reports it. Call it
// from PhaseSet.Step only.
func (k *Kernel) Phase(p metrics.Phase, rounds ...func(w int)) {
	if k.cfg.Hooks != nil {
		k.ran[p] = true
		k.starts[p] = time.Since(k.runStart)
	}
	start := time.Now()
	for _, fn := range rounds {
		k.team.Run(k.Busy[p], fn)
	}
	k.stats.Durations[p] = time.Since(start)
}

// Team is the one fan-out: Kernel.Phase's W workers, and inside one worker's
// round cyclops' T compute stripes and R receivers. Its goroutine bodies are
// made once by NewTeam, so a Run allocates nothing. A Team runs one Run at a
// time; nested fan-outs each have their own.
type Team struct {
	wg    sync.WaitGroup
	fn    func(i int)
	busy  []time.Duration
	spawn []func() // spawn[i-1] runs fn(i), timed into busy, and signals wg
}

// NewTeam builds a fan-out of width n ≥ 1.
func NewTeam(n int) *Team {
	t := &Team{spawn: make([]func(), n-1)}
	for i := range t.spawn {
		t.spawn[i] = func() {
			defer t.wg.Done()
			timed(t.busy, t.fn, i+1)
		}
	}
	return t
}

// Run runs fn(0..n-1) concurrently and waits: fn(0) on the calling goroutine,
// which would only wait anyway, so a Team of one is a plain call. busy, when
// non-nil, accumulates each index's time inside fn.
func (t *Team) Run(busy []time.Duration, fn func(i int)) {
	t.fn, t.busy = fn, busy
	t.wg.Add(len(t.spawn))
	for _, f := range t.spawn {
		go f()
	}
	timed(busy, fn, 0)
	t.wg.Wait()
}

// timed runs fn(i), reading the clock only when busy books the time.
func timed(busy []time.Duration, fn func(i int), i int) {
	if busy == nil {
		fn(i)
		return
	}
	t0 := time.Now()
	fn(i)
	busy[i] += time.Since(t0)
}

// Run executes supersteps until the phase set stops, MaxSupersteps is
// reached, or a fault, audit violation or checkpoint failure ends the run. It
// is the run bracket: loop may return from anywhere and OnRunEnd still fires.
// With Checkpoints set it first saves the baseline the run can always roll
// back to, so a fault before the first periodic save is still recoverable.
func (k *Kernel) Run(ps PhaseSet) error {
	if err := k.save(*k.cfg.Step); err != nil {
		return err
	}
	k.begin()
	reason, err := k.loop(ps)
	if h := k.cfg.Hooks; h != nil {
		h.OnRunEnd(obs.RunEnd{Step: *k.cfg.Step, Reason: reason, Wall: k.runWall, Hot: k.rec.Hot()})
	}
	if ferr := k.cfg.Link.Err(); err == nil && ferr != nil {
		err = fmt.Errorf("%s: transport: %w", k.cfg.Name, ferr)
	}
	return err
}

// begin opens the run. runStart anchors span offsets; runWall accumulates the
// sum of superstep walls, so the run span reconciles with the timings section totals.
func (k *Kernel) begin() {
	cfg := &k.cfg
	k.runStart = time.Now()
	if cfg.Hooks == nil {
		return
	}
	*cfg.RunSeq++
	k.rec.Spans.Run = *cfg.RunSeq
	info := cfg.Info()
	info.Run = *cfg.RunSeq
	cfg.Hooks.OnRunStart(info)
	// Anchored at the current snapshot, deltas stay correct on resumed runs.
	k.prevComm = cfg.Link.Matrix().Snapshot()
	k.rec.Comm = k.prevComm.Clone()
}

// loop is the superstep loop; it returns why the run stopped. Between
// OnSuperstepStart and OnSuperstep there is no exit, so the pair cannot break:
// a superstep that fails at its barrier still delivers its record first.
func (k *Kernel) loop(ps PhaseSet) (reason string, err error) {
	cfg, h, step := &k.cfg, k.cfg.Hooks, k.cfg.Step
	recoveries := 0
	for *step < cfg.MaxSupersteps {
		if cfg.Injector != nil {
			cfg.Injector.BeginStep(*step)
		}
		k.stats = metrics.StepStats{Step: *step}
		clear(k.slab)
		for w, row := range cfg.Residuals {
			cfg.Residuals[w] = row[:0]
		}
		if ps.Begin != nil && !ps.Begin() {
			return obs.ReasonNoActive, nil
		}
		if h != nil {
			h.OnSuperstepStart(*step)
			k.beginSpans(*step)
		}
		violations := ps.Step()
		start := time.Now()
		for w := range cfg.Workers {
			k.stats.Active += k.Active[w]
			k.stats.Changed += k.Changed[w]
			k.stats.Messages += k.Sent[w]
			k.stats.RedundantMessages += k.Redundant[w]
		}
		ps.Sync(&k.stats)
		k.resAll = k.resAll[:0]
		for _, row := range cfg.Residuals {
			k.resAll = append(k.resAll, row...)
		}
		k.stats.SetResiduals(k.resAll)
		k.stats.Durations[metrics.Sync] = time.Since(start)
		cfg.Trace.Append(k.stats)
		if h != nil {
			k.rec.Step, k.rec.Stats, k.rec.Violations, k.rec.Recovery = *step, k.stats, violations, nil
			cfg.Link.Matrix().Advance(k.prevComm, k.rec.Comm)
			k.endSpans()
		}
		// Fault check at the barrier, before anything from this superstep is
		// persisted: a transient transport fault rolls the run back to the
		// latest checkpoint (§3.6) and replays; anything else fails the run.
		// Either way the superstep's record goes out first, carrying the
		// recovery when there was one.
		ferr := cfg.Link.Err()
		var fail error
		switch {
		case ferr == nil:
		case !transport.IsTransient(ferr) || cfg.Checkpoints == nil || recoveries >= maxRecoveries:
			fail = fmt.Errorf("%s: transport: %w", cfg.Name, ferr)
		default:
			if rerr := cfg.Checkpoints.Recover(); rerr != nil {
				fail = fmt.Errorf("%s: recovery: %w", cfg.Name, rerr)
				break
			}
			recoveries++
			if h != nil {
				k.rec.Recovery = &obs.RecoveryEvent{Engine: cfg.Trace.Engine, Step: k.rec.Step,
					ResumedAt: *step, Attempt: recoveries, Cause: ferr.Error()}
			}
		}
		if h != nil {
			h.OnSuperstep(k.rec)
		}
		if fail != nil {
			return obs.ReasonFault, fail
		}
		if ferr != nil {
			continue
		}
		if len(violations) > 0 {
			return obs.ReasonAuditFailed, fmt.Errorf("%s: %w", cfg.Name, &obs.AuditError{Violations: violations})
		}
		if cfg.CheckpointEvery > 0 && (*step+1)%cfg.CheckpointEvery == 0 {
			if cerr := k.save(*step + 1); cerr != nil {
				return obs.ReasonFault, cerr
			}
		}
		if ps.OnStep != nil {
			ps.OnStep(*step)
		}
		stop := ""
		if ps.Pending != nil {
			if pending := ps.Pending(); pending == 0 {
				stop = obs.ReasonNoActive
			} else if ps.Halt != nil && ps.Halt(*step, pending) {
				stop = obs.ReasonHalt
			}
		}
		*step++
		if stop != "" {
			return stop, nil // the phase set stopped the run
		}
	}
	return obs.ReasonMaxSupersteps, nil
}

// save persists the state superstep step starts from, when checkpointing.
func (k *Kernel) save(step int) error {
	if c := k.cfg.Checkpoints; c != nil {
		if err := c.Save(step); err != nil {
			return fmt.Errorf("%s: checkpoint at step %d: %w", k.cfg.Name, step, err)
		}
	}
	return nil
}

// beginSpans resets the superstep's span bookkeeping.
func (k *Kernel) beginSpans(step int) {
	sd := &k.rec.Spans
	sd.Step, sd.StepStart = step, time.Since(k.runStart)
	k.ran, k.starts = [metrics.Sync]bool{}, [metrics.Sync]time.Duration{}
	for p := range k.Busy {
		clear(k.Busy[p])
	}
	for w := 0; w < k.cfg.Workers; w++ {
		k.serNs0[w] = k.cfg.Link.SerializeNanos(w)
	}
}

// endSpans completes the superstep's span data. Wall is the sum of the phase
// durations — exactly what the timings section records — so the critpath section reconciles.
func (k *Kernel) endSpans() {
	sd, d := &k.rec.Spans, &k.stats.Durations
	sd.Wall = d[metrics.Parse] + d[metrics.Compute] + d[metrics.Send] + d[metrics.Sync]
	k.runWall += sd.Wall
	sd.ParseStart, sd.ComputeStart = k.starts[metrics.Parse], k.starts[metrics.Compute]
	sd.SendStart = k.starts[metrics.Send]
	sd.Parse, sd.Compute, sd.Send = nil, k.Busy[metrics.Compute], k.Busy[metrics.Send]
	if k.ran[metrics.Parse] {
		sd.Parse = k.Busy[metrics.Parse]
	}
	if !k.ran[metrics.Send] {
		// No Send phase: the engine sent inside its Compute rounds and booked
		// that share itself; split it back out.
		sd.SendStart = sd.ComputeStart
		for w := range sd.Compute {
			sd.Compute[w] = max(sd.Compute[w]-sd.Send[w], 0)
		}
	}
	for w := range sd.SerializeNs {
		sd.SerializeNs[w] = k.cfg.Link.SerializeNanos(w) - k.serNs0[w]
	}
	sd.Units, sd.Recv, sd.Sent = k.Units, k.Recv, k.Sent
	if k.Wire != nil {
		sd.Sent = k.Wire
	}
}
