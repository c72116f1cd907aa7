package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cyclops/internal/graph"
)

// The RPC transport's timeouts are fixed, not configured: no caller has a
// reason to choose differently on loopback. There is no read deadline — a long
// compute phase between supersteps is indistinguishable from a stalled peer at
// the socket level.
const (
	writeTimeout = 10 * time.Second // bounds each frame write
	dialTimeout  = 5 * time.Second  // bounds each dial of NewRPC and Reset
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
// Breaches are surfaced as a fatal ErrRoundViolation through Err.
//
// Failure handling has one path, the engines' checkpoint recovery (§3.6). On
// a live transport a failed write, a read error or an EOF records a transient
// *Error; an undecodable frame or any use after Close is fatal. Every
// recorded error breaks the rounds, so no Drain waits for a marker a failed
// connection swallowed. Recovery's Rewind calls Reset: a fresh mesh, empty
// inboxes. Nothing is resent: without acknowledgements a sender cannot know
// which frames arrived.
type RPC[M any] struct {
	n int
	books[M]

	// encBufs[from][to] is the arena-style per-peer encode buffer, reused
	// across supersteps so steady-state encoding allocates nothing. Guarded
	// by encMu[from].
	encBufs [][][]byte

	listeners []net.Listener
	// conns[from][to] is the dialled end `from` writes to `to` on, peers[from][to]
	// the accepted end `to`'s receive loop reads; nil on the diagonal
	// (self-sends short-circuit).
	conns, peers [][]net.Conn
	encMu        []sync.Mutex // one per sender: engines may send from several goroutines

	inboxes []rpcInbox[M]

	// serNs[from] is guarded by encMu[from], like the buffers it describes.
	serNs []int64

	closed atomic.Bool
	// hangingUp is set while Close or Reset takes the mesh down, so the
	// receive loops it ends record nothing.
	hangingUp atomic.Bool
	closeOnce sync.Once
	loops     sync.WaitGroup // the running receive loops

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
	// broken makes every Drain return at once: set when an error is
	// recorded, cleared by Reset.
	broken bool
}

// NewRPC creates a fully connected loopback transport between n endpoints.
// codec prices the wire exactly as NewLocal's does and also encodes every
// frame, so it is required (New rejects a missing one). A failure to listen
// or dial is a typed *Error.
func NewRPC[M any](n int, codec graph.Codec[M]) (*RPC[M], error) {
	t := &RPC[M]{
		n:         n,
		books:     newBooks(n, codec),
		encBufs:   make([][][]byte, n),
		listeners: make([]net.Listener, n),
		conns:     make([][]net.Conn, n),
		peers:     make([][]net.Conn, n),
		encMu:     make([]sync.Mutex, n),
		inboxes:   make([]rpcInbox[M], n),
		serNs:     make([]int64, n),
	}
	for i, in := range newInboxes[M](n) {
		t.inboxes[i].inbox = in
		t.inboxes[i].cond = sync.NewCond(&t.inboxes[i].mu)
		t.inboxes[i].endsFrom = make([]int, n)
		t.encBufs[i] = make([][]byte, n)
		t.conns[i], t.peers[i] = make([]net.Conn, n), make([]net.Conn, n)
	}
	for i := range t.listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close() // best-effort teardown; the listen error is what matters
			return nil, &Error{Op: "dial", Peer: i, Err: err}
		}
		t.listeners[i] = ln
	}
	if err := t.connect(); err != nil {
		_ = t.Close()
		return nil, err
	}
	return t, nil
}

// connect dials the mesh: for every ordered pair it dials the receiver's
// listener, accepts the connection and starts the receive loop on it. No
// other process dials these listeners, so each Accept returns the dial just
// made.
func (t *RPC[M]) connect() error {
	for from, row := range t.conns {
		for to := range row {
			if to == from {
				continue
			}
			c, err := net.DialTimeout("tcp", t.listeners[to].Addr().String(), dialTimeout)
			if err != nil {
				return &Error{Op: "dial", Peer: to, Err: err}
			}
			row[to] = c
			p, err := t.listeners[to].Accept()
			if err != nil {
				return &Error{Op: "dial", Peer: to, Err: err}
			}
			t.peers[from][to] = p
			t.loops.Add(1)
			go t.receiveLoop(to, p)
		}
	}
	return nil
}

// hangUp closes both ends of every connection and waits for every receive
// loop to return; the loops it ends record nothing. Taking each sender's
// lock orders it after any in-flight send on that sender's connections.
func (t *RPC[M]) hangUp() {
	t.hangingUp.Store(true)
	for from := range t.conns {
		t.encMu[from].Lock()
		for to := range t.conns[from] {
			for _, c := range []net.Conn{t.conns[from][to], t.peers[from][to]} {
				if c != nil {
					c.Close()
				}
			}
		}
		t.encMu[from].Unlock()
	}
	t.loops.Wait()
}

// Reset implements Interface: it takes the mesh down, empties every inbox and
// marker count, clears a transient error and dials a fresh mesh, so the next
// round holds only what is sent after it. A fatal error stays and is
// returned; a failed dial is recorded and returned, fatal, with Op "dial".
func (t *RPC[M]) Reset() error {
	if t.closed.Load() {
		return &Error{Op: "dial", Peer: -1, Err: ErrClosed}
	}
	t.hangUp()
	t.hangingUp.Store(false)
	t.errMu.Lock()
	if IsTransient(t.err) {
		t.err = nil
	}
	err := t.err
	t.errMu.Unlock()
	if err != nil {
		return err
	}
	for i := range t.inboxes {
		in := &t.inboxes[i]
		in.mu.Lock()
		in.drain() // discards what the rounds held
		clear(in.endsFrom)
		in.broken = false
		in.mu.Unlock()
	}
	err = t.connect()
	t.recordErr(err)
	return err
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
	defer t.loops.Done()
	defer conn.Close()
	in := &t.inboxes[to]
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.readFailed(to, err)
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
			t.readFailed(to, err)
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
			// round markers included, is lost. The error is fatal, so the run
			// fails typed instead of replaying into misaligned rounds.
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

// readFailed records a receive loop's read error or EOF as transient, unless
// Close or Reset ended the loop.
func (t *RPC[M]) readFailed(to int, err error) {
	if !t.hangingUp.Load() {
		t.recordErr(&Error{Op: "recv", Peer: to, Retryable: true, Err: err})
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
// replaces a transient one. Either kind breaks the rounds: the connection
// that failed may have swallowed a marker, waiting for it would be a hang,
// and the engines check Err at the barrier anyway.
func (t *RPC[M]) recordErr(err error) {
	if err == nil {
		return
	}
	t.errMu.Lock()
	if t.err == nil || !IsTransient(err) && IsTransient(t.err) {
		t.err = err
	}
	t.errMu.Unlock()
	t.breakRounds()
}

// breakRounds wakes every Drain and makes it return at once until Reset.
func (t *RPC[M]) breakRounds() {
	for i := range t.inboxes {
		in := &t.inboxes[i]
		in.mu.Lock()
		in.broken = true
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

// sendFrame encodes one frame from→to into the per-peer arena buffer and
// writes it with a single Write under a deadline. Caller holds encMu[from].
// Wire bytes are booked only for a frame written whole.
func (t *RPC[M]) sendFrame(from, to int, end bool, batch []M) error {
	encStart := time.Now()
	buf := appendFrame(t.encBufs[from][to][:0], from, to, end, batch, t.codec)
	t.encBufs[from][to] = buf
	t.serNs[from] += time.Since(encStart).Nanoseconds() //lint:allow determinism serialisation time feeds the Serialize span, quarantined like the timings section
	if t.closed.Load() {
		return &Error{Op: "send", Peer: to, Err: ErrClosed}
	}
	conn := t.conns[from][to]
	conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	if _, err := conn.Write(buf); err != nil {
		return &Error{Op: "send", Peer: to, Retryable: true, Err: err}
	}
	t.bookWire(from, to, int64(len(buf)))
	t.stats.encodes.Add(1)
	return nil
}

// Send delivers a batch from `from` to `to`. Self-sends bypass the network
// but are booked like any other batch. Failures are reported through Err (the
// Interface contract keeps the send path non-blocking for engines).
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
// be called exactly once per round per endpoint. A marker that cannot be
// written is recorded through Err, which breaks the rounds, so the barrier
// sees the failure instead of hanging in Drain.
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
		t.recordErr(t.sendFrame(from, to, true, nil))
	}
}

// Drain blocks until one round marker from every endpoint has arrived, then
// returns all batches received by `to` in the inbox's (sender, send) order —
// the order Local drains — and consumes the markers. A recorded error or a
// closed transport unblocks it immediately.
func (t *RPC[M]) Drain(to int) [][]M {
	in := &t.inboxes[to]
	in.mu.Lock()
	defer in.mu.Unlock()
	for !in.broken {
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
	if !in.broken { // every sender's marker is here: consume one each
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

// SerializeNanos implements Interface: cumulative frame-encoding time charged
// to sender `from`.
func (t *RPC[M]) SerializeNanos(from int) int64 {
	t.encMu[from].Lock()
	defer t.encMu[from].Unlock()
	return t.serNs[from]
}

// Close shuts down all sockets and returns once every receive loop has. It
// is idempotent and safe to call concurrently with in-flight sends and other
// Close calls: later Sends and FinishRounds fail fast with a typed ErrClosed
// error instead of writing to dead sockets, and blocked Drains return.
func (t *RPC[M]) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		t.hangUp()
		t.breakRounds()
	})
	return nil
}

var _ Interface[int] = (*RPC[int])(nil)
