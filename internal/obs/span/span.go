// Package span models causal spans for the observability layer: every phase
// of every superstep of a run becomes a span with a deterministic structural
// identity (kind, superstep, worker) and a parent link, so the span stream of
// two same-seed runs is structurally byte-identical even though the measured
// durations differ. Traffic between workers is not a span: the transport's
// Matrix books it per (sender, receiver) pair, and the record's comm rows
// carry it.
package span

import (
	"fmt"
	"time"
)

// Kind classifies a span.
type Kind uint8

const (
	// Run is the root span of one engine run.
	Run Kind = iota
	// Superstep covers one superstep, parented by the run span.
	Superstep
	// Parse covers one worker's receive/parse phase of one superstep.
	Parse
	// Compute covers one worker's compute phase of one superstep.
	Compute
	// Serialize covers the wire-serialisation share of one worker's send
	// phase (zero on the in-process transport, which never encodes).
	Serialize
	// Send covers one worker's send phase minus its serialisation share.
	Send
	// BarrierWait is the slack between a worker's busy time and the
	// superstep wall: the time the worker spent blocked on barriers.
	BarrierWait
)

// String implements fmt.Stringer with the short names used in the spans section.
func (k Kind) String() string {
	switch k {
	case Run:
		return "run"
	case Superstep:
		return "superstep"
	case Parse:
		return "parse"
	case Compute:
		return "compute"
	case Serialize:
		return "serialize"
	case Send:
		return "send"
	case BarrierWait:
		return "barrier-wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ID packs a span's structural identity into one int64:
//
//	kind<<56 | (step+1)<<32 | (worker+1)<<16
//
// Identity is purely structural — no sequence counters, no clocks — which is
// what makes span IDs and parent links byte-identical across same-seed runs.
// step and worker use -1 for "not applicable" (the run span has no step; run
// and superstep spans have no worker), so the packed fields stay non-negative.
func ID(kind Kind, step, worker int) int64 {
	return int64(kind)<<56 | int64(step+1)<<32 | int64(worker+1)<<16
}

// RunID is the run root span's ID.
func RunID() int64 { return ID(Run, -1, -1) }

// StepID is superstep `step`'s span ID.
func StepID(step int) int64 { return ID(Superstep, step, -1) }

// SendID is the ID of worker `worker`'s send span in superstep `step` — the
// parent of that worker's Serialize span.
func SendID(step, worker int) int64 { return ID(Send, step, worker) }

// Span is one completed (or, for live views, still-open) span.
type Span struct {
	ID     int64
	Parent int64
	// Run numbers the engine's runs starting at 1 (deterministic: a fresh
	// engine's first run is always 1).
	Run int64
	// Step is the superstep, -1 for the run span.
	Step int
	// Worker is the owning worker, -1 for run and superstep spans.
	Worker int
	Kind   Kind
	// Units and Msgs are the span's deterministic weights: edges scanned for
	// Compute, messages for Parse/Send.
	Units int64
	Msgs  int64
	// Start is the span's monotonic offset from the run start; Dur its
	// measured duration. Both are wall-clock derived and therefore
	// quarantined: they never reach the deterministic spans section columns.
	Start time.Duration
	Dur   time.Duration
}
