// Package fault injects deterministic, seed-driven failures into a run so
// the engines' §3.6 recovery path can be exercised, tested, and replayed.
//
// A Plan is a schedule of Faults — worker crashes at a given superstep,
// dropped or stalled connections, corrupted frames, slow peers — derived
// entirely from a seed: the same seed always yields the same schedule, byte
// for byte (Encode is canonical), so a chaos failure recorded in CI is
// replayed locally from nothing but its seed, and two runs of the same plan
// are diffable by the flight recorder.
//
// The Injector wraps any transport.Interface and applies the plan at the
// transport boundary. Faults surface as typed transient errors through Err,
// exactly as the RPC transport reports a dropped connection, so the
// engines cannot tell injected chaos from the real thing.
package fault

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
)

// Kind names a failure mode.
type Kind string

const (
	// Crash kills a worker for one superstep: all of its outgoing batches
	// vanish and the fault is reported as a transient transport error. Round
	// markers still flow — a crashed process's TCP FINs still arrive — so
	// barriers complete and the fault is observed at the barrier, not as a
	// hang.
	Crash Kind = "crash"
	// Drop severs one direction of one connection for a superstep: batches
	// from Worker to Peer are discarded and a transient error is reported.
	Drop Kind = "drop"
	// Corrupt truncates every batch from Worker to Peer for a superstep
	// (the tail of the frame is lost, as after a mid-frame connection
	// reset) and reports a transient error.
	Corrupt Kind = "corrupt"
	// Stall delays Worker's sends by DelayMs and reports a transient error,
	// modelling a peer stuck past its deadlines.
	Stall Kind = "stall"
	// Slow delays Worker's sends by DelayMs without reporting an error:
	// a degraded-but-correct peer. It perturbs timing only, never results.
	Slow Kind = "slow"
)

// Fault is one scheduled failure.
type Fault struct {
	// Kind is the failure mode.
	Kind Kind `json:"kind"`
	// Step is the superstep (0-based) at which the fault fires.
	Step int `json:"step"`
	// Worker is the afflicted worker.
	Worker int `json:"worker"`
	// Peer is the remote end for connection-scoped faults (Drop, Corrupt);
	// -1 when the fault afflicts all of Worker's connections.
	Peer int `json:"peer"`
	// DelayMs is the injected latency for Stall and Slow.
	DelayMs int `json:"delay_ms,omitempty"`
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s@step=%d worker=%d", f.Kind, f.Step, f.Worker)
	if f.Peer >= 0 {
		s += fmt.Sprintf(" peer=%d", f.Peer)
	}
	if f.DelayMs > 0 {
		s += fmt.Sprintf(" delay=%dms", f.DelayMs)
	}
	return s
}

var kinds = []Kind{Crash, Drop, Corrupt, Stall, Slow} // every Kind, in NewPlan's draw order

// Error is the typed transient failure the Injector reports through Err when
// a fault fires. It satisfies transport.IsTransient, so a checkpointed
// engine recovers from it like from any real transient transport fault.
type Error struct {
	Fault Fault
}

func (e *Error) Error() string { return "fault injected: " + e.Fault.String() }

// Transient marks every injected fault recoverable.
func (e *Error) Transient() bool { return true }

// Plan is a deterministic fault schedule.
type Plan struct {
	// Seed is the seed the schedule was derived from (0 for hand-written
	// plans).
	Seed int64 `json:"seed"`
	// Faults is the schedule, sorted by (Step, Worker, Kind).
	Faults []Fault `json:"faults"`
}

// NewPlan derives a fault schedule from a seed: n faults over workers
// [0,workers) and supersteps [minStep, maxStep]. The same arguments always
// produce the same plan; Encode renders it byte-identically.
func NewPlan(seed int64, workers, minStep, maxStep, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	if workers < 1 || maxStep < minStep || n < 1 {
		return p
	}
	for i := 0; i < n; i++ {
		f := Fault{
			Kind:   kinds[rng.Intn(len(kinds))],
			Step:   minStep + rng.Intn(maxStep-minStep+1),
			Worker: rng.Intn(workers),
			Peer:   -1,
		}
		switch f.Kind {
		case Drop, Corrupt:
			if workers > 1 {
				f.Peer = rng.Intn(workers - 1)
				if f.Peer >= f.Worker {
					f.Peer++
				}
			}
		case Stall, Slow:
			f.DelayMs = 1 + rng.Intn(20)
		}
		p.Faults = append(p.Faults, f)
	}
	p.normalize()
	return p
}

// normalize sorts the schedule into its canonical order so Encode is
// byte-identical for equal plans however they were built.
func (p *Plan) normalize() {
	sort.SliceStable(p.Faults, func(i, j int) bool {
		a, b := p.Faults[i], p.Faults[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Kind < b.Kind
	})
}

// Encode renders the plan as canonical JSON: same plan ⇒ same bytes, so two
// schedules are comparable with bytes.Equal and diffable as flight-recorder
// artifacts.
func (p Plan) Encode() []byte {
	q := p
	q.Faults = append([]Fault(nil), p.Faults...)
	q.normalize()
	b, err := json.MarshalIndent(q, "", "  ")
	if err != nil {
		// A Plan holds only ints and strings; this cannot fail.
		panic(fmt.Sprintf("fault: encode: %v", err))
	}
	return append(b, '\n')
}

// PlanError reports a fault in a plan file that no run can fire.
type PlanError struct {
	Index int // the fault's position in the file's list
	Msg   string
}

func (e *PlanError) Error() string { return fmt.Sprintf("fault %d: %s", e.Index, e.Msg) }

// Load reads a plan written by Encode (or by hand) from path. Malformed JSON
// fails with encoding/json's error, an impossible fault with a *PlanError.
func Load(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: load plan: %w", err)
	}
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("fault: parse plan %s: %w", path, err)
	}
	for i, f := range p.Faults {
		msg := ""
		switch {
		case !slices.Contains(kinds, f.Kind):
			msg = fmt.Sprintf("unknown kind %q", f.Kind)
		case f.Step < 0 || f.Worker < 0 || f.DelayMs < 0:
			msg = fmt.Sprintf("negative step, worker or delay_ms in %+v", f)
		case f.Peer < -1 || f.Peer == f.Worker:
			msg = fmt.Sprintf("peer %d is neither -1 nor another worker than %d", f.Peer, f.Worker)
		}
		if msg != "" {
			return Plan{}, fmt.Errorf("fault: plan %s: %w", path, &PlanError{Index: i, Msg: msg})
		}
	}
	p.normalize()
	return p, nil
}

func (p Plan) String() string {
	if len(p.Faults) == 0 {
		return fmt.Sprintf("plan(seed=%d, empty)", p.Seed)
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return fmt.Sprintf("plan(seed=%d, %s)", p.Seed, strings.Join(parts, "; "))
}
