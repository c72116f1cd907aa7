// Package transport carries messages between the simulated cluster's
// workers. It provides two in-process queue disciplines that reproduce the
// communication structures compared in the paper — Hama's locked global
// in-queue (every sender contends on one mutex per receiver, §2.2.2) and
// Cyclops' per-sender sub-queues (each slot has a single writer, so enqueue
// is contention-free, §4.1) — plus a real TCP transport carrying the same
// length-prefixed binary frames and the Table 3 message-passing
// microbenchmark. Every transport takes a message codec and books traffic the
// same way: payload from sizeOf, wire from the frame format, so the harness
// reports the communication volumes of Figures 10(3) and Table 4 exactly and
// a run costs the same bytes whichever network carries it.
package transport

import (
	"fmt"
	"sync/atomic"
)

// books is the traffic accounting both transports embed: the two functions
// every batch is priced by (payload, frameWireBytes over codec) and Stats, which holds
// the one ledger they are booked on — the Matrix, per (from, to) pair —
// beside the handful of transport-wide counters it keeps for itself.
type books[M any] struct {
	sizeOf func(M) int64
	codec  BodyCodec[M]
	stats  Stats
}

// Stats exposes the traffic counters.
func (b *books[M]) Stats() *Stats { return &b.stats }

// Matrix exposes the per-peer traffic counters.
func (b *books[M]) Matrix() *Matrix { return b.stats.matrix }

// payload estimates a batch's logical size: sizeOf per message, or a flat 16
// bytes (two words: vertex id + value) without one.
func (b *books[M]) payload(batch []M) int64 {
	if b.sizeOf == nil {
		return int64(len(batch)) * 16
	}
	var n int64
	for i := range batch {
		n += b.sizeOf(batch[i])
	}
	return n
}

// bookBatch records one batch from→to.
func (b *books[M]) bookBatch(from, to int, batch []M, locked bool) {
	b.stats.matrix.Add(from, to, int64(len(batch)), b.payload(batch))
	b.stats.batches.Add(1)
	if locked {
		b.stats.enqueues.Add(1)
	}
}

// bookWire records n frame bytes from→to.
func (b *books[M]) bookWire(from, to int, n int64) {
	b.stats.matrix.AddWire(from, to, n)
}

// Stats is the transport-wide view of the traffic. Messages, payload bytes
// and wire bytes are the Matrix's totals — booked once, per (from, to) pair —
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

// Bytes reports the total estimated payload bytes sent.
func (s *Stats) Bytes() int64 { return total(s.matrix.bytes) }

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
	Messages, Batches, Bytes, LockedEnqueues int64
	// WireBytes is the encoded on-the-wire byte count; Encodes and Decodes
	// count frame serialisation operations (zero for in-process transports).
	WireBytes, Encodes, Decodes int64
	Retries, Reconnects         int64
}

// Snapshot returns a copy of the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Messages:       s.Messages(),
		Batches:        s.Batches(),
		Bytes:          s.Bytes(),
		WireBytes:      s.WireBytes(),
		Encodes:        s.Encodes(),
		Decodes:        s.Decodes(),
		LockedEnqueues: s.LockedEnqueues(),
		Retries:        s.Retries(),
		Reconnects:     s.Reconnects(),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("msgs=%d batches=%d bytes=%d wire=%d locked=%d",
		s.Messages, s.Batches, s.Bytes, s.WireBytes, s.LockedEnqueues)
}
