// Package span models causal spans for the observability layer: every phase
// of every superstep of a run becomes a span with a deterministic structural
// identity (kind, superstep, worker) and a parent link, so the span stream of
// two same-seed runs is structurally byte-identical even though the measured
// durations differ. A delivery span links back to the sender's send span —
// the cross-worker edge a wall-clock trace cannot provide — from what the
// receiver already knows: who sent the batch (the transport's Delivery) and,
// by the engine's phase order, in which superstep.
//
// The package deliberately imports nothing from the rest of the tree (only
// the standard library), so the transports can depend on it without creating
// a cycle with obs.
package span

import (
	"cmp"
	"fmt"
	"slices"
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
	// Deliver covers one drained sender→receiver batch group on the receive
	// side, parented by the *sender's* Send span.
	Deliver

	numKinds
)

// String implements fmt.Stringer with the short names used in spans.csv.
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
	case Deliver:
		return "deliver"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ID packs a span's structural identity into one int64:
//
//	kind<<56 | (step+1)<<32 | (worker+1)<<16 | (from+1)
//
// Identity is purely structural — no sequence counters, no clocks — which is
// what makes span IDs and parent links byte-identical across same-seed runs.
// step, worker and from use -1 for "not applicable" (the run span has no
// step; run and superstep spans have no worker; only Deliver spans have a
// sending peer), so the packed fields stay non-negative.
func ID(kind Kind, step, worker, from int) int64 {
	return int64(kind)<<56 | int64(step+1)<<32 | int64(worker+1)<<16 | int64(from+1)
}

// RunID is the run root span's ID.
func RunID() int64 { return ID(Run, -1, -1, -1) }

// StepID is superstep `step`'s span ID.
func StepID(step int) int64 { return ID(Superstep, step, -1, -1) }

// SendID is the ID of worker `worker`'s send span in superstep `step` — the
// parent of a Deliver span from that worker.
func SendID(step, worker int) int64 { return ID(Send, step, worker, -1) }

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
	// From is the sending worker of a Deliver span, -1 otherwise.
	From int
	Kind Kind
	// Units and Msgs are the span's deterministic weights: edges scanned for
	// Compute, messages for Parse/Send/Deliver.
	Units int64
	Msgs  int64
	// Start is the span's monotonic offset from the run start; Dur its
	// measured duration. Both are wall-clock derived and therefore
	// quarantined: they never reach the deterministic spans.csv columns.
	Start time.Duration
	Dur   time.Duration
}

// Delivery is the receive-side provenance of one drained sender→receiver
// batch group: who sent it and how many messages.
type Delivery struct {
	From int
	Msgs int64
}

// MergeDeliveries folds `more` into `dst`, aggregating message counts by
// sender and keeping the result sorted by sender so the merged order is
// scheduling-independent. It owns and returns dst.
func MergeDeliveries(dst, more []Delivery) []Delivery {
	for _, d := range more {
		dst = AddDelivery(dst, d)
	}
	return dst
}

// AddDelivery merges a single delivery into dst, which must already be
// sorted by sender — the order MergeDeliveries and AddDelivery both
// maintain. This is the transports' per-batch hot path: a binary search and,
// for a new sender, an insert into dst's spare capacity, so folding a drain's
// provenance into a capacity-reused list allocates nothing in steady state.
func AddDelivery(dst []Delivery, d Delivery) []Delivery {
	i, found := slices.BinarySearchFunc(dst, d.From, func(e Delivery, from int) int { return cmp.Compare(e.From, from) })
	if found {
		dst[i].Msgs += d.Msgs
		return dst
	}
	return slices.Insert(dst, i, d)
}
