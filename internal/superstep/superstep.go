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
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Link is the non-generic half of transport.Interface.
type Link interface {
	SerializeNanos(from int) int64
	Matrix() *transport.Matrix
	LastDeliveries(to int) []span.Delivery
	Err() error
}

// Injector is the part of fault.Injector the kernel drives.
type Injector interface {
	BeginStep(step int)
	Heal()
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
	// fold aggregates, swap activation, fill stats.
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

// Counters is a run's scratch block: phase bodies write slot w from worker
// w's goroutine, the kernel zeroes the per-worker rows at the top of each
// superstep and reads them after the barrier.
type Counters struct {
	Units   []int64 // edges scanned in compute
	Active  []int64 // vertices that computed
	Sent    []int64 // messages sent (logical)
	Recv    []int64 // messages drained (see Kernel.Drained)
	Batches []int64 // batches drained
	Sync    []int64 // replica-sync share of Sent (heat column)
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
	slab []int64 // backs the six always-present Counters rows

	runStart time.Time
	runWall  time.Duration
	stats    metrics.StepStats
	// rec is the one value observers get per superstep, reused across the run;
	// its per-worker rows alias Counters. nil with Hooks off.
	rec    *obs.StepRecord
	ran    [metrics.Sync]bool          // phases run this superstep
	starts [metrics.Sync]time.Duration // and their offsets from runStart
	serNs0 []int64
	// lag is how many supersteps the engine's drains trail its sends (bsp's
	// PRS drains the previous SND: 1; cyclops and gas drain within the
	// superstep: 0); first is the lowest superstep this Run has begun. Both
	// only place Deliver spans under their parent.
	lag, first int
	prevComm   transport.MatrixSnapshot // cumulative traffic at the last barrier
	resAll     []float64                // Residuals' rows, joined for SetResiduals
}

// New allocates a run's scratch; the loop allocates no bookkeeping after it.
func New(cfg Config) *Kernel {
	k := &Kernel{cfg: cfg}
	n := cfg.Workers
	k.slab = make([]int64, 6*n)
	row := func(i int) []int64 { return k.slab[i*n : (i+1)*n : (i+1)*n] }
	k.Units, k.Active, k.Sent, k.Recv, k.Batches, k.Sync = row(0), row(1), row(2), row(3), row(4), row(5)
	if cfg.Hooks != nil {
		k.HeatMsgs = make([]int64, cfg.Vertices)
		k.HeatUnits = make([]int64, cfg.Vertices)
		for p := range k.Busy {
			k.Busy[p] = make([]time.Duration, n)
		}
		k.serNs0 = make([]int64, n)
		k.rec = &obs.StepRecord{Units: k.Units, Active: k.Active, Sent: k.Sent, Recv: k.Recv,
			Batches: k.Batches, Sync: k.Sync, HeatMsgs: k.HeatMsgs, HeatUnits: k.HeatUnits, Owner: cfg.Owner}
		k.rec.Spans.SerializeNs = make([]int64, n)
		k.rec.Spans.Deliveries = make([][]span.Delivery, n)
	}
	return k
}

// Drained books one Drain by worker w — call it from w's goroutine right
// after the Drain, before the next one invalidates its provenance.
func (k *Kernel) Drained(w int, msgs, batches int64) {
	k.Recv[w] += msgs
	k.Batches[w] += batches
	if k.cfg.Hooks != nil {
		sd := &k.rec.Spans
		sd.Deliveries[w] = span.MergeDeliveries(sd.Deliveries[w], k.cfg.Link.LastDeliveries(w))
	}
}

// Phase runs each round on every worker behind its own barrier, times the
// whole as phase p and reports it. Call it from PhaseSet.Step only.
func (k *Kernel) Phase(p metrics.Phase, rounds ...func(w int)) {
	if k.cfg.Hooks != nil {
		k.ran[p] = true
		k.starts[p] = time.Since(k.runStart)
	}
	start := time.Now()
	for _, fn := range rounds {
		Fan(k.cfg.Workers, k.Busy[p], fn)
	}
	k.stats.Durations[p] = time.Since(start)
	if k.cfg.Hooks != nil {
		k.cfg.Hooks.OnPhase(k.stats.Step, p, k.stats.Durations[p])
	}
}

// Fan runs fn(0..n-1) concurrently and waits — the one place a superstep
// spawns goroutines: Phase's workers, and the stripes inside one (cyclops' T
// threads and R receivers). n == 1 runs on the caller's goroutine, which would
// only wait anyway. busy, when non-nil, accumulates time inside fn.
func Fan(n int, busy []time.Duration, fn func(i int)) {
	if n == 1 {
		timed(busy, fn, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			timed(busy, fn, i)
		}(i)
	}
	wg.Wait()
}

func timed(busy []time.Duration, fn func(i int), i int) {
	t0 := time.Now()
	fn(i)
	if busy != nil {
		busy[i] += time.Since(t0)
	}
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
// sum of superstep walls, so the run span reconciles with timings.csv totals.
func (k *Kernel) begin() {
	cfg := &k.cfg
	k.runStart = time.Now()
	if cfg.Hooks == nil {
		return
	}
	*cfg.RunSeq++
	k.rec.Spans.Run = *cfg.RunSeq
	k.first = *cfg.Step
	info := cfg.Info()
	info.Run = *cfg.RunSeq
	cfg.Hooks.OnRunStart(info)
	// Anchored at the current snapshot, deltas stay correct on resumed runs.
	k.prevComm = cfg.Link.Matrix().Snapshot()
	k.rec.Comm = k.prevComm.Clone()
}

// loop is the superstep loop; it returns why the run stopped. Between
// OnSuperstepStart and OnSuperstep there is no exit, so the pair cannot break.
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
		ps.Sync(&k.stats)
		k.resAll = k.resAll[:0]
		for _, row := range cfg.Residuals {
			k.resAll = append(k.resAll, row...)
		}
		k.stats.SetResiduals(k.resAll)
		k.stats.Durations[metrics.Sync] = time.Since(start)
		cfg.Trace.Append(k.stats)
		if h != nil {
			h.OnPhase(*step, metrics.Sync, k.stats.Durations[metrics.Sync])
			k.rec.Step, k.rec.Stats, k.rec.Violations = *step, k.stats, violations
			cfg.Link.Matrix().Advance(k.prevComm, k.rec.Comm)
			k.endSpans()
			h.OnSuperstep(k.rec)
		}
		// Fault check at the barrier, before anything from this superstep is
		// persisted: a transient transport fault rolls the run back to the
		// latest checkpoint (§3.6) and replays; anything else fails the run.
		if ferr := cfg.Link.Err(); ferr != nil {
			if !transport.IsTransient(ferr) || cfg.Checkpoints == nil || recoveries >= maxRecoveries {
				return obs.ReasonFault, fmt.Errorf("%s: transport: %w", cfg.Name, ferr)
			}
			faultStep := *step
			if cfg.Injector != nil {
				cfg.Injector.Heal()
			}
			if rerr := cfg.Checkpoints.Recover(); rerr != nil {
				return obs.ReasonFault, fmt.Errorf("%s: recovery: %w", cfg.Name, rerr)
			}
			recoveries++
			if h != nil {
				h.OnRecovery(obs.RecoveryEvent{Engine: cfg.Trace.Engine, Step: faultStep,
					ResumedAt: *step, Attempt: recoveries, Cause: ferr.Error()})
			}
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

// beginSpans resets the superstep's span bookkeeping and names the superstep
// whose sends its drains return, when that superstep ran in this Run.
func (k *Kernel) beginSpans(step int) {
	sd := &k.rec.Spans
	sd.Step, sd.StepStart = step, time.Since(k.runStart)
	k.first = min(k.first, step)
	sd.SendStep = step - k.lag
	if sd.SendStep < k.first {
		sd.SendStep = -1
	}
	k.ran, k.starts = [metrics.Sync]bool{}, [metrics.Sync]time.Duration{}
	for p := range k.Busy {
		clear(k.Busy[p])
	}
	for w := 0; w < k.cfg.Workers; w++ {
		sd.Deliveries[w] = sd.Deliveries[w][:0]
		k.serNs0[w] = k.cfg.Link.SerializeNanos(w)
	}
}

// endSpans completes the superstep's span data. Wall is the sum of the phase
// durations — exactly what timings.csv records — so critpath.csv reconciles.
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
