// Package transport carries messages between the simulated cluster's
// workers. It provides two in-process queue disciplines that reproduce the
// communication structures compared in the paper — Hama's locked global
// in-queue (every sender contends on one mutex per receiver, §2.2.2) and
// Cyclops' per-sender sub-queues (each slot has a single writer, so enqueue
// is contention-free, §4.1) — plus a real TCP transport carrying the same
// length-prefixed binary frames and the Table 3 message-passing
// microbenchmark. Every transport takes a message codec and books traffic the
// same way: messages per batch, and wire bytes from the frame format, so the
// harness reports the communication volumes of Figures 10(3) and Table 4
// exactly and a run costs the same bytes whichever network carries it.
package transport

import (
	"fmt"
	"sync/atomic"

	"cyclops/internal/graph"
)

// books is the traffic accounting both transports embed: the codec every
// frame is priced by (frameWireBytes) and Stats, which holds the one ledger
// batches are booked on — the Matrix, per (from, to) pair — beside the
// handful of transport-wide counters it keeps for itself.
type books[M any] struct {
	codec BodyCodec[M]
	stats Stats
}

func newBooks[M any](n int, codec graph.Codec[M]) books[M] {
	return books[M]{codec: bodyOf(codec), stats: Stats{matrix: NewMatrix(n)}}
}

// Stats exposes the traffic counters.
func (b *books[M]) Stats() *Stats { return &b.stats }

// Matrix exposes the per-peer traffic counters.
func (b *books[M]) Matrix() *Matrix { return b.stats.matrix }

// bookBatch records one batch of msgs messages from→to.
func (b *books[M]) bookBatch(from, to, msgs int, locked bool) {
	b.stats.matrix.Add(from, to, int64(msgs))
	b.stats.batches.Add(1)
	if locked {
		b.stats.enqueues.Add(1)
	}
}

// bookWire records n frame bytes from→to.
func (b *books[M]) bookWire(from, to int, n int64) {
	b.stats.matrix.AddWire(from, to, n)
}

// Stats is the transport-wide view of the traffic. Messages and wire bytes
// are the Matrix's totals — booked once, per (from, to) pair —
// and Stats counts only what has no cell to live in. All of it is updated
// atomically and may be read concurrently with traffic.
type Stats struct {
	matrix     *Matrix
	batches    atomic.Int64
	encodes    atomic.Int64 // frame encode operations
	decodes    atomic.Int64 // frame decode operations
	enqueues   atomic.Int64 // enqueue operations that took the shared lock
	retries    atomic.Int64 // send attempts repeated after a transient failure
	reconnects atomic.Int64 // connections re-established after a failure
}

// Messages reports the total messages sent.
func (s *Stats) Messages() int64 { return total(s.matrix.messages) }

// Batches reports the total batches sent.
func (s *Stats) Batches() int64 { return s.batches.Load() }

// WireBytes reports the total binary-frame bytes sent: header + body per
// batch on both transports — priced in-process per batch (len(batch) ×
// FixedSize, else the codec's BodySize or Σ EncodedSize), len(frame) over
// TCP — plus one header per round marker over TCP.
func (s *Stats) WireBytes() int64 { return total(s.matrix.wire) }

// Encodes reports the number of frame encode operations performed.
func (s *Stats) Encodes() int64 { return s.encodes.Load() }

// Decodes reports the number of frame decode operations performed.
func (s *Stats) Decodes() int64 { return s.decodes.Load() }

// LockedEnqueues reports how many enqueues serialised on a shared lock —
// zero for the per-sender discipline, equal to Batches for the global queue.
func (s *Stats) LockedEnqueues() int64 { return s.enqueues.Load() }

// Retries reports how many send attempts were repeated after a transient
// failure. Always zero for the in-process transports.
func (s *Stats) Retries() int64 { return s.retries.Load() }

// Reconnects reports how many connections were re-established after a
// failure. Always zero for the in-process transports.
func (s *Stats) Reconnects() int64 { return s.reconnects.Load() }

// Snapshot is a plain-struct copy of the counters for reporting.
type Snapshot struct {
	Messages, Batches, LockedEnqueues int64
	// WireBytes is the encoded on-the-wire byte count, the run's one byte
	// count; Encodes and Decodes count frame serialisation operations (zero
	// for in-process transports).
	WireBytes, Encodes, Decodes int64
	Retries, Reconnects         int64
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Messages:       s.Messages(),
		Batches:        s.Batches(),
		WireBytes:      s.WireBytes(),
		Encodes:        s.Encodes(),
		Decodes:        s.Decodes(),
		LockedEnqueues: s.LockedEnqueues(),
		Retries:        s.Retries(),
		Reconnects:     s.Reconnects(),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("msgs=%d batches=%d wire=%d locked=%d",
		s.Messages, s.Batches, s.WireBytes, s.LockedEnqueues)
}
