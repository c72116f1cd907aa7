package transport

import (
	"fmt"
	"sync"

	"cyclops/internal/graph"
)

// QueueMode selects the receive-side queue discipline.
type QueueMode int

const (
	// GlobalQueue guards each receiver's inbox with one lock that every
	// sender's enqueue takes, as Hama's global in-queue does (§2.2.2):
	// senders from different workers contend on the receiver's mutex.
	GlobalQueue QueueMode = iota
	// PerSenderQueue gives each (sender, receiver) slot its own lock, as
	// Cyclops' per-sender sub-queues do (§4.1): a slot has exactly one
	// writer, so enqueueing never contends.
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

// inbox is one receiver's undrained batches, one slot per sender: slots[from]
// holds what `from` sent, in send order. It has no lock of its own: Local
// guards it per receiver or per slot (the queue modes), RPC with the inbox
// mutex its receive loops share. Both transports fill and drain this one
// type, so every network delivers in the same order.
type inbox[M any] struct {
	slots [][][]M
	// out is the last drain's batches, valid until the next drain, which
	// reuses its memory.
	out [][]M
}

// newInboxes carves every inbox from arrays made once, so a fresh transport's
// first round allocates nothing: each slot has room for one batch (engines
// send one per sender, receiver and round; more grow by append) and each
// drain's scratch for one per sender.
func newInboxes[M any](n int) []inbox[M] {
	ins := make([]inbox[M], n)
	slots, batches := make([][][]M, n*n), make([][]M, 2*n*n)
	for i := range ins {
		row := i * n
		ins[i].slots = slots[row : row+n]
		for from := range ins[i].slots {
			ins[i].slots[from] = batches[row+from : row+from : row+from+1]
		}
		ins[i].out = batches[n*n+row : n*n+row : n*n+row+n]
	}
	return ins
}

// drain returns every queued batch by sender, then in send order — a
// canonical order whatever the goroutine or socket scheduling, so engines
// that fold message values in drain order produce bit-identical results on
// every network and every same-seed run.
func (in *inbox[M]) drain() [][]M {
	in.out = in.out[:0]
	for from, s := range in.slots {
		in.out = append(in.out, s...)
		// Truncate, don't nil: out copied the batch headers, so the slot's
		// backing array is free to take the next round's sends — steady state
		// allocates nothing per Send.
		in.slots[from] = s[:0]
	}
	return in.out
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
	inboxes []inbox[M]
	// locks guard the inboxes: GlobalQueue has one per receiver, which every
	// sender's enqueue takes; PerSenderQueue one per (receiver, sender) slot,
	// uncontended with its single writer but keeping the race detector honest.
	locks []sync.Mutex
}

// NewLocal creates a transport between n workers with the given queue mode.
// codec prices the wire and is required — New is the constructor that
// rejects a missing one.
func NewLocal[M any](n int, mode QueueMode, codec graph.Codec[M]) *Local[M] {
	locks := n
	switch mode {
	case GlobalQueue:
	case PerSenderQueue:
		locks = n * n
	default:
		panic(fmt.Sprintf("transport: unknown queue mode %d", mode))
	}
	return &Local[M]{n: n, mode: mode, books: newBooks(n, codec),
		inboxes: newInboxes[M](n), locks: make([]sync.Mutex, locks)}
}

// NumEndpoints reports the number of workers the transport connects.
func (t *Local[M]) NumEndpoints() int { return t.n }

// locksOf returns the locks guarding `to`'s inbox: its one lock, or its
// slots' locks indexed by sender.
func (t *Local[M]) locksOf(to int) []sync.Mutex {
	if t.mode == GlobalQueue {
		return t.locks[to : to+1]
	}
	return t.locks[to*t.n : (to+1)*t.n]
}

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
	mu := &t.locks[to]
	if t.mode == PerSenderQueue {
		mu = &t.locks[to*t.n+from]
	}
	mu.Lock()
	in := &t.inboxes[to]
	in.slots[from] = append(in.slots[from], batch)
	mu.Unlock()
}

// Drain returns and clears all batches queued for worker `to`, in the
// inbox's (sender, send) order. It must only be called when no Send to `to`
// is in flight (i.e. after a barrier), which is how the BSP superstep
// structure uses it. The returned slice is reused by the next Drain(to).
func (t *Local[M]) Drain(to int) [][]M {
	locks := t.locksOf(to)
	for i := range locks {
		locks[i].Lock()
	}
	out := t.inboxes[to].drain()
	for i := range locks {
		locks[i].Unlock()
	}
	return out
}

// Reset implements Interface: it empties every inbox.
func (t *Local[M]) Reset() error {
	for to := range t.inboxes {
		t.Drain(to)
	}
	return nil
}

// SerializeNanos implements Interface: the in-process transport never
// encodes, so serialisation time is identically zero.
func (t *Local[M]) SerializeNanos(int) int64 { return 0 }

// Pending reports whether worker `to` has undrained batches (test helper).
func (t *Local[M]) Pending(to int) bool {
	locks := t.locksOf(to)
	for i := range locks {
		locks[i].Lock()
		defer locks[i].Unlock()
	}
	for _, s := range t.inboxes[to].slots {
		if len(s) > 0 {
			return true
		}
	}
	return false
}
