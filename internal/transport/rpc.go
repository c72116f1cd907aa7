package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cyclops/internal/graph"
	"cyclops/internal/obs/span"
)

// Failure handling of the RPC transport is fixed, not configured: no caller
// has a reason to choose differently on loopback. There is no read deadline —
// a long compute phase between supersteps is indistinguishable from a stalled
// peer at the socket level.
const (
	writeTimeout = 10 * time.Second       // bounds each frame write
	dialTimeout  = 5 * time.Second        // bounds the initial and reconnect dials
	maxRetries   = 3                      // fresh-connection retries before a send error surfaces
	backoffBase  = 10 * time.Millisecond  // first reconnect backoff; doubles per attempt, with jitter
	backoffMax   = 500 * time.Millisecond // backoff ceiling
)

// maxRoundLag bounds how many unconsumed round markers one sender may have
// pending at one receiver. Senders legitimately run ahead of receivers
// (nothing in the round protocol forces lockstep), but every engine drains
// its own inbox each superstep, so real lag stays tiny; a sender whose
// markers pile up past this bound has necessarily finished a round more than
// once. Crossing it records a fatal ErrRoundViolation — the typed-error
// replacement for the barrier skew and eventual hang a duplicate marker used
// to cause.
const maxRoundLag = 64

// RPC is a real networked transport: n endpoints fully connected by TCP
// loopback sockets carrying the binary frames of frame.go, standing where
// Hama uses Hadoop RPC. It exists to keep the engines honest about
// serialisation — the transport tests and the pr-web-cyclops-tcp benchmark
// drive real bytes through real sockets — while the large experiments use
// Local, which books the same bytes without materializing them.
//
// The round protocol matches BSP supersteps: each endpoint Sends any number
// of batches, then calls FinishRound exactly once per round; Drain blocks
// until one round marker from every endpoint has arrived, then returns all
// batches. Markers are tagged with their sender, so a duplicate marker from
// a fast endpoint can never stand in for a missing one from another — the
// skew that made a FinishRound contract breach corrupt every later barrier.
// Breaches are surfaced as a fatal ErrRoundViolation through Err, and a
// fatal error unblocks every Drain rather than leaving the engines hung.
//
// Failure handling: writes carry deadlines, a failed send is retried over a
// freshly dialled connection with exponential backoff + jitter (bounded by
// maxRetries) and stays transient, a frame that does not decode is fatal (the
// rounds behind it cannot be trusted), and errors surfaced through Err are
// typed *Error values whose Transient flag tells the engines whether
// checkpoint recovery may apply.
type RPC[M any] struct {
	n int
	books[M]

	// encBufs[from][to] is the arena-style per-peer encode buffer, reused
	// across supersteps so steady-state encoding allocates nothing. Guarded
	// by encMu[from].
	encBufs [][][]byte

	listeners []net.Listener
	// conns[from][to] is the client-side connection used by `from` to send
	// to `to`; nil on the diagonal (self-sends short-circuit).
	conns [][]net.Conn
	encMu []sync.Mutex // one per sender: engines may send from several goroutines
	rngs  []*rand.Rand // per-sender jitter source, guarded by encMu

	inboxes []rpcInbox[M]

	// serNs[from] is guarded by encMu[from], like the buffers it describes.
	serNs []int64

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	errMu sync.Mutex
	err   error
}

// rpcInbox is one receiver's inbox under the one mutex its receive loops,
// self-sends and Drain share, plus the round state.
type rpcInbox[M any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	inbox[M]
	// endsFrom[i] counts unconsumed round markers from sender i. Drain
	// consumes exactly one from every sender per round.
	endsFrom []int
	// lent is the last Drain's decoded batches — every slot but the
	// receiver's own — valid until the next Drain(to) frees them for
	// receiveLoop to decode into.
	lent, free [][]M
	closed     bool
}

// NewRPC creates a fully connected loopback transport between n endpoints.
// codec prices the wire exactly as NewLocal's does and also encodes every
// frame, so it is required (New rejects a missing one).
func NewRPC[M any](n int, codec graph.Codec[M]) (*RPC[M], error) {
	t := &RPC[M]{
		n:         n,
		books:     newBooks(n, codec),
		encBufs:   make([][][]byte, n),
		listeners: make([]net.Listener, n),
		conns:     make([][]net.Conn, n),
		encMu:     make([]sync.Mutex, n),
		rngs:      make([]*rand.Rand, n),
		inboxes:   make([]rpcInbox[M], n),
		serNs:     make([]int64, n),
	}
	for i, in := range newInboxes[M](n) {
		t.inboxes[i].inbox = in
		t.inboxes[i].cond = sync.NewCond(&t.inboxes[i].mu)
		t.inboxes[i].endsFrom = make([]int, n)
		// A fixed per-sender seed keeps retry schedules reproducible under
		// the fault-injection harness.
		t.rngs[i] = rand.New(rand.NewSource(int64(i)))
		t.encBufs[i] = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close() // best-effort teardown; the listen error is what matters
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		t.listeners[i] = ln
	}
	// Accept loops: every endpoint accepts inbound connections until its
	// listener closes. Accepting forever (not just the initial n-1) is what
	// lets a sender replace a failed connection mid-run: the reconnect dial
	// lands here and a fresh receive loop takes over the stream.
	for to := 0; to < n; to++ {
		to := to
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				conn, err := t.listeners[to].Accept()
				if err != nil {
					return
				}
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.receiveLoop(to, conn)
				}()
			}
		}()
	}
	for from := 0; from < n; from++ {
		t.conns[from] = make([]net.Conn, n)
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			conn, err := net.DialTimeout("tcp", t.listeners[to].Addr().String(), dialTimeout)
			if err != nil {
				_ = t.Close() // best-effort teardown; the dial error is what matters
				return nil, fmt.Errorf("transport: dial %d→%d: %w", from, to, err)
			}
			t.conns[from][to] = conn
		}
	}
	return t, nil
}

// maxFrameBytes bounds a frame's declared length. A desynchronized or
// corrupted stream would otherwise turn a garbage length prefix into an
// arbitrarily large allocation; past this bound the stream is dead anyway.
const maxFrameBytes = 1 << 30

// receiveLoop reads frames off one inbound connection: a 4-byte length
// prefix, then the frame body decoded by the codec. The body buffer is
// reused across frames (grown once to the high-water mark) and each batch is
// decoded into one the inbox recycled, so the steady state allocates only
// when a frame outgrows every recycled batch.
func (t *RPC[M]) receiveLoop(to int, conn net.Conn) {
	in := &t.inboxes[to]
	defer conn.Close()
	var hdr [4]byte
	var body []byte
	for {
		// A read error is the normal end of a replaced or closed connection.
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxFrameBytes {
			t.recordErr(&Error{Op: "recv", Peer: to, Err: fmt.Errorf("frame length %d exceeds limit", n)})
			return
		}
		if int(n) > cap(body) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		t.stats.decodes.Add(1)
		in.mu.Lock()
		var scratch []M
		if k := len(in.free); k > 0 {
			scratch, in.free = in.free[k-1], in.free[:k-1]
		}
		in.mu.Unlock()
		from, end, batch, err := decodeFrameBody(body, to, t.codec, scratch)
		if err == nil && (from < 0 || from >= t.n) {
			err = fmt.Errorf("%w: sender %d outside [0,%d)", ErrFrameCorrupt, from, t.n)
		}
		if err != nil {
			// The stream is desynced: whatever it carried after this frame,
			// round markers included, is lost, and a marker resent over a
			// fresh dial may land a round late. The error is fatal, so the
			// run fails typed instead of replaying into misaligned rounds.
			t.recordErr(&Error{Op: "recv", Peer: to, Err: err})
			return
		}
		if end {
			t.depositEnd(to, from)
			continue
		}
		t.deposit(from, to, batch)
	}
}

// deposit puts a received (or self-sent) batch into the sender's slot of
// `to`'s inbox.
func (t *RPC[M]) deposit(from, to int, batch []M) {
	in := &t.inboxes[to]
	in.mu.Lock()
	in.slots[from] = append(in.slots[from], batch)
	in.cond.Broadcast()
	in.mu.Unlock()
}

// depositEnd credits a round marker from `from` at `to`'s inbox, enforcing
// the FinishRound contract via the marker-lag bound.
func (t *RPC[M]) depositEnd(to, from int) {
	in := &t.inboxes[to]
	in.mu.Lock()
	in.endsFrom[from]++
	lagged := in.endsFrom[from] > maxRoundLag
	in.cond.Broadcast()
	in.mu.Unlock()
	if lagged {
		t.recordErr(&Error{Op: "finish-round", Peer: from, Err: ErrRoundViolation})
	}
}

// NumEndpoints reports the number of endpoints.
func (t *RPC[M]) NumEndpoints() int { return t.n }

// recordErr keeps the first asynchronous failure for Err, but a fatal error
// replaces a transient one and breaks every blocked Drain: once the round
// protocol is dead, waiting for markers that will never arrive is a hang,
// and the engines check Err at the barrier anyway.
func (t *RPC[M]) recordErr(err error) {
	if err == nil {
		return
	}
	fatal := !IsTransient(err)
	t.errMu.Lock()
	if t.err == nil || fatal && IsTransient(t.err) {
		t.err = err
	}
	t.errMu.Unlock()
	if fatal {
		t.breakRounds()
	}
}

// breakRounds wakes and permanently unblocks all Drains.
func (t *RPC[M]) breakRounds() {
	for i := range t.inboxes {
		in := &t.inboxes[i]
		in.mu.Lock()
		in.closed = true
		in.cond.Broadcast()
		in.mu.Unlock()
	}
}

// Err implements Interface: the first asynchronous failure, if any. The
// value is always a typed *Error; IsTransient reports whether checkpoint
// recovery may apply to it.
func (t *RPC[M]) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// ClearErr drops a recorded transient error after the engines have recovered
// from it. Fatal errors stick: recovery must not mask a closed transport or
// a protocol violation.
func (t *RPC[M]) ClearErr() {
	t.errMu.Lock()
	if t.err != nil && IsTransient(t.err) {
		t.err = nil
	}
	t.errMu.Unlock()
}

// backoff returns the jittered delay before retry attempt `attempt` (0-based)
// by sender `from`. Caller holds encMu[from].
func (t *RPC[M]) backoff(from, attempt int) time.Duration {
	d := backoffBase << attempt
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// Half fixed, half jitter: spreads reconnect storms without ever
	// returning a zero sleep.
	return d/2 + time.Duration(t.rngs[from].Int63n(int64(d/2)+1))
}

// sendFrame encodes one frame from→to into the per-peer arena buffer and
// writes it with a single Write, re-dialling with backoff on failure. Caller
// holds encMu[from]. Returns the final error after retries.
func (t *RPC[M]) sendFrame(from, to int, end bool, batch []M) error {
	encStart := time.Now()
	buf := appendFrame(t.encBufs[from][to][:0], from, to, end, batch, t.codec)
	t.encBufs[from][to] = buf
	t.serNs[from] += time.Since(encStart).Nanoseconds() //lint:allow determinism serialisation time feeds the Serialize span, quarantined like the timings section
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if t.closed.Load() {
			return &Error{Op: "send", Peer: to, Err: ErrClosed}
		}
		if attempt > 0 {
			time.Sleep(t.backoff(from, attempt-1))
			conn, err := net.DialTimeout("tcp", t.listeners[to].Addr().String(), dialTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			t.conns[from][to].Close()
			t.conns[from][to] = conn
			t.stats.reconnects.Add(1)
		}
		conn := t.conns[from][to]
		conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
		if _, err := conn.Write(buf); err != nil {
			lastErr = err
			t.stats.retries.Add(1)
			continue
		}
		// Wire accounting only on success, and frames carry no stream state:
		// a failed attempt's partial bytes are resent in full, byte for byte,
		// so the counted sequence stays the deterministic one the perf gate
		// can diff exactly.
		t.bookWire(from, to, int64(len(buf)))
		t.stats.encodes.Add(1)
		return nil
	}
	return &Error{Op: "send", Peer: to, Retryable: true, Err: lastErr}
}

// Send delivers a batch from `from` to `to`. Self-sends bypass the network
// but are booked like any other batch. Failures are reported through Err (the
// Interface contract keeps the send path non-blocking for engines); transient
// ones are first retried over a fresh connection.
func (t *RPC[M]) Send(from, to int, batch []M) {
	if len(batch) == 0 {
		return
	}
	if t.closed.Load() {
		t.recordErr(&Error{Op: "send", Peer: to, Err: ErrClosed})
		return
	}
	t.bookBatch(from, to, len(batch), true)
	t.encMu[from].Lock()
	defer t.encMu[from].Unlock()
	if from == to {
		t.bookWire(from, to, frameWireBytes(from, to, batch, t.codec))
		t.deposit(from, to, batch)
		return
	}
	t.recordErr(t.sendFrame(from, to, false, batch))
}

// FinishRound marks the end of `from`'s sends for the current round. It must
// be called exactly once per round per endpoint. If a marker cannot be
// written even after reconnect retries, it is credited to the receiver's
// inbox directly (all endpoints share this process): the barrier still
// completes and the engines observe the failure through Err at the barrier
// instead of hanging in Drain.
func (t *RPC[M]) FinishRound(from int) {
	if t.closed.Load() {
		t.recordErr(&Error{Op: "finish-round", Peer: -1, Err: ErrClosed})
		return
	}
	t.encMu[from].Lock()
	defer t.encMu[from].Unlock()
	for to := 0; to < t.n; to++ {
		if to == from {
			t.depositEnd(to, from)
			continue
		}
		if err := t.sendFrame(from, to, true, nil); err != nil {
			t.recordErr(err)
			t.depositEnd(to, from)
		}
	}
}

// Drain blocks until one round marker from every endpoint has arrived, then
// returns all batches received by `to` in the inbox's (sender, send) order —
// the order Local drains — and consumes the markers. A closed transport or
// a fatal error unblocks it immediately.
func (t *RPC[M]) Drain(to int) [][]M {
	in := &t.inboxes[to]
	in.mu.Lock()
	defer in.mu.Unlock()
	for !in.closed {
		ready := true
		for _, e := range in.endsFrom {
			if e == 0 {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		in.cond.Wait()
	}
	if !in.closed { // every sender's marker is here: consume one each
		for i := range in.endsFrom {
			in.endsFrom[i]--
		}
	}
	in.free = append(in.free, in.lent...) // dead now, by the Drain contract
	in.lent = in.lent[:0]
	for from, s := range in.slots {
		if from != to {
			in.lent = append(in.lent, s...)
		}
	}
	return in.drain()
}

// LastDeliveries implements Interface.
func (t *RPC[M]) LastDeliveries(to int) []span.Delivery {
	in := &t.inboxes[to]
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.deliv
}

// SerializeNanos implements Interface: cumulative frame-encoding time charged
// to sender `from`.
func (t *RPC[M]) SerializeNanos(from int) int64 {
	t.encMu[from].Lock()
	defer t.encMu[from].Unlock()
	return t.serNs[from]
}

// Close shuts down all sockets. It is idempotent and safe to call
// concurrently with in-flight sends and other Close calls: later Sends and
// FinishRounds fail fast with a typed ErrClosed error instead of writing to
// dead sockets, and blocked Drains return.
func (t *RPC[M]) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		// Taking each sender's lock orders this Close after any in-flight
		// send on that connection, so the encoder never writes to a conn
		// being torn down concurrently.
		for from, row := range t.conns {
			t.encMu[from].Lock()
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
			t.encMu[from].Unlock()
		}
		t.breakRounds()
	})
	return nil
}

var _ Interface[int] = (*RPC[int])(nil)
