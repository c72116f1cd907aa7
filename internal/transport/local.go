package transport

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"cyclops/internal/graph"
	"cyclops/internal/obs/span"
)

// QueueMode selects the receive-side queue discipline.
type QueueMode int

const (
	// GlobalQueue appends every incoming batch to one locked queue per
	// receiver, as Hama does (§4.1): senders from different workers contend
	// on the receiver's mutex.
	GlobalQueue QueueMode = iota
	// PerSenderQueue gives each (sender, receiver) pair its own slot, as
	// Cyclops does: a slot has exactly one writer, so enqueueing never
	// contends.
	PerSenderQueue
)

// String implements fmt.Stringer for reports.
func (m QueueMode) String() string {
	switch m {
	case GlobalQueue:
		return "global-queue"
	case PerSenderQueue:
		return "per-sender"
	default:
		return fmt.Sprintf("QueueMode(%d)", int(m))
	}
}

// Local is an in-process transport between n workers. Send is synchronous:
// when it returns, the batch is visible to the receiver's next Drain. The
// caller transfers ownership of the batch slice. No frame is materialized:
// the wire charge is frameWireBytes, a pure function of the batch and its
// endpoints, so it is deterministic, exact-diffable by the perf gate, and
// equal to what the TCP transport writes for the same batch.
type Local[M any] struct {
	n    int
	mode QueueMode
	books[M]

	// GlobalQueue state: one locked queue per receiver.
	global []lockedQueue[M]
	// PerSenderQueue state: slot [to][from], single writer each.
	slots [][]slot[M]
	// out[to] is what Drain(to) returns, reused by the next Drain(to).
	out [][][]M

	// lastDeliv[to] is the provenance of Drain(to)'s batches, written and
	// read only by Drain(to)'s caller.
	lastDeliv [][]span.Delivery
}

type lockedQueue[M any] struct {
	mu      sync.Mutex
	batches []taggedBatch[M]
	seq     []int64 // per-sender send counter, indexed by from
}

// taggedBatch remembers who enqueued a batch and in what per-sender order, so
// Drain can return a canonical ordering instead of goroutine arrival order.
// Arrival order depends on scheduling; sorting by (from, seq) makes the fold
// order of non-commutative-in-floating-point reductions reproducible, which
// the flight recorder's byte-identical series guarantee relies on.
type taggedBatch[M any] struct {
	from  int
	seq   int64
	batch []M
}

type slot[M any] struct {
	mu      sync.Mutex // uncontended: single writer; keeps the race detector honest
	batches [][]M
}

// NewLocal creates a transport between n workers with the given queue mode.
// codec prices the wire and is required — New is the constructor that
// rejects a missing one.
func NewLocal[M any](n int, mode QueueMode, codec graph.Codec[M]) *Local[M] {
	t := &Local[M]{n: n, mode: mode, books: newBooks(n, codec),
		lastDeliv: make([][]span.Delivery, n), out: make([][][]M, n)}
	switch mode {
	case GlobalQueue:
		t.global = make([]lockedQueue[M], n)
		for i := range t.global {
			t.global[i].seq = make([]int64, n)
		}
	case PerSenderQueue:
		t.slots = make([][]slot[M], n)
		for i := range t.slots {
			t.slots[i] = make([]slot[M], n)
		}
	default:
		panic(fmt.Sprintf("transport: unknown queue mode %d", mode))
	}
	return t
}

// NumEndpoints reports the number of workers the transport connects.
func (t *Local[M]) NumEndpoints() int { return t.n }

// Send delivers a batch from worker `from` to worker `to`. Empty batches are
// dropped. The batch slice is owned by the transport afterwards.
func (t *Local[M]) Send(from, to int, batch []M) {
	if len(batch) == 0 {
		return
	}
	if to < 0 || to >= t.n || from < 0 || from >= t.n {
		panic(fmt.Sprintf("transport: send %d→%d outside [0,%d)", from, to, t.n))
	}
	t.bookBatch(from, to, len(batch), t.mode == GlobalQueue)
	t.bookWire(from, to, frameWireBytes(from, to, batch, t.codec))
	switch t.mode {
	case GlobalQueue:
		q := &t.global[to]
		q.mu.Lock()
		q.seq[from]++
		q.batches = append(q.batches, taggedBatch[M]{from: from, seq: q.seq[from], batch: batch})
		q.mu.Unlock()
	case PerSenderQueue:
		s := &t.slots[to][from]
		s.mu.Lock()
		s.batches = append(s.batches, batch)
		s.mu.Unlock()
	}
}

// Drain returns and clears all batches queued for worker `to`. It must only
// be called when no Send to `to` is in flight (i.e. after a barrier), which
// is how the BSP superstep structure uses it. Batches come back in canonical
// (sender, send-order) order regardless of goroutine scheduling, so engines
// that fold message values in drain order produce bit-identical results on
// every same-seed run. The returned slice is reused by the next Drain(to).
func (t *Local[M]) Drain(to int) [][]M {
	deliv := t.lastDeliv[to][:0]
	out := t.out[to][:0]
	switch t.mode {
	case GlobalQueue:
		q := &t.global[to]
		q.mu.Lock()
		queued := q.batches
		// Truncate, don't nil: `queued` aliases the backing array but is dead
		// before the next round's Sends reuse it (the Drain contract — no Send
		// is in flight — makes this the per-sender slot reuse's twin).
		q.batches = q.batches[:0]
		q.mu.Unlock()
		slices.SortFunc(queued, func(a, b taggedBatch[M]) int { // (from, seq) is unique
			return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.seq, b.seq))
		})
		for i := range queued {
			out = append(out, queued[i].batch)
			deliv = span.AddDelivery(deliv, span.Delivery{From: queued[i].from, Msgs: int64(len(queued[i].batch))})
		}
	default:
		for from := range t.slots[to] {
			s := &t.slots[to][from]
			s.mu.Lock()
			out = append(out, s.batches...)
			for _, b := range s.batches {
				deliv = span.AddDelivery(deliv, span.Delivery{From: from, Msgs: int64(len(b))})
			}
			// Truncate, don't nil: out copied the batch headers, so the
			// containers' backing arrays are free to take next superstep's
			// sends — the slot reaches steady state with zero allocations
			// per Send, like the engines' arena buffers it carries.
			s.batches = s.batches[:0]
			s.mu.Unlock()
		}
	}
	t.out[to], t.lastDeliv[to] = out, deliv
	return out
}

// LastDeliveries implements Interface.
func (t *Local[M]) LastDeliveries(to int) []span.Delivery { return t.lastDeliv[to] }

// SerializeNanos implements Interface: the in-process transport never
// encodes, so serialisation time is identically zero.
func (t *Local[M]) SerializeNanos(int) int64 { return 0 }

// Pending reports whether worker `to` has undrained batches (test helper).
func (t *Local[M]) Pending(to int) bool {
	switch t.mode {
	case GlobalQueue:
		q := &t.global[to]
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.batches) > 0
	default:
		for from := range t.slots[to] {
			s := &t.slots[to][from]
			s.mu.Lock()
			n := len(s.batches)
			s.mu.Unlock()
			if n > 0 {
				return true
			}
		}
		return false
	}
}
