package transport

// Hardening tests for the RPC transport: idempotent/concurrent Close that
// waits for its receive loops, typed fail-fast errors after Close, the
// FinishRound once-per-round contract surfacing as ErrRoundViolation instead
// of a hang, seeded socket faults surfacing as transient typed errors that
// Reset recovers from, typed dial errors, and a corrupt frame surfacing as a
// typed fatal error instead of a silent divergence. These run in-package so
// they can sever, wrap or write to a live connection directly.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"cyclops/internal/graph"
)

// drainOrTimeout guards against the exact regression these tests exist for:
// a Drain that blocks forever. It fails the test instead of hanging the run.
func drainOrTimeout[M any](t *testing.T, tr *RPC[M], to int) [][]M {
	t.Helper()
	done := make(chan [][]M, 1)
	go func() { done <- tr.Drain(to) }()
	select {
	case out := <-done:
		return out
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain(%d) hung", to)
		return nil
	}
}

func TestRPCCloseIdempotentConcurrent(t *testing.T) {
	tr, err := NewRPC[int](3, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	// Sends, round markers and several Closes all race: Close must win
	// exactly once, never panic, and the losers must fail fast.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := tr.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				tr.Send(i%3, (i+1)%3, []int{j})
			}
		}()
	}
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr.FinishRound(i)
		}()
	}
	close(start)
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	// The closed transport must not block a late Drain.
	drainOrTimeout(t, tr, 0)
}

func TestRPCSendAfterCloseFailsFastTyped(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Send(0, 1, []int{1})
	got := tr.Err()
	if got == nil {
		t.Fatal("Send after Close must record an error")
	}
	var te *Error
	if !errors.As(got, &te) {
		t.Fatalf("error is not a typed *transport.Error: %v", got)
	}
	if te.Op != "send" || !errors.Is(got, ErrClosed) {
		t.Fatalf("want send/ErrClosed, got op=%q err=%v", te.Op, got)
	}
	if IsTransient(got) {
		t.Fatal("ErrClosed must be fatal: recovery cannot revive a closed transport")
	}
	tr.FinishRound(0) // must also fail fast, not write to dead sockets
	if err := tr.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("FinishRound after Close: %v", err)
	}
	drainOrTimeout(t, tr, 1)
}

func TestRPCFinishRoundOveruseIsTypedViolation(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Violate the once-per-round contract far past the allowed pipeline lag.
	// The self-deposited marker trips the bound synchronously, so the error
	// is guaranteed visible once the loop exceeds maxRoundLag calls.
	for i := 0; i <= maxRoundLag; i++ {
		tr.FinishRound(0)
	}
	got := tr.Err()
	if got == nil || !errors.Is(got, ErrRoundViolation) {
		t.Fatalf("want ErrRoundViolation, got %v", got)
	}
	if IsTransient(got) {
		t.Fatal("a protocol violation must be fatal, not recoverable")
	}
	// The violation breaks the round protocol permanently; a Drain that
	// would otherwise wait for endpoint 1's marker must return, not hang.
	drainOrTimeout(t, tr, 0)
}

// connFault is a seeded socket fault on the dialled end of one connection.
type connFault int

const (
	shortWrite  connFault = iota // half a frame reaches the peer, then the connection resets
	resetAfterK                  // the connection resets at a frame boundary
	stalledRead                  // the peer's read waits on a write that stalls, times out and resets
)

// faultConn wraps the dialled end of one connection, swapped into tr.conns.
// sendFrame writes each frame with one Write, so it counts frames: the first
// `after` pass, the next fires the fault, and every later one fails on the
// reset connection.
type faultConn struct {
	net.Conn
	mode   connFault
	after  int
	stall  time.Duration
	frames int
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.frames++
	if c.frames != c.after+1 {
		return c.Conn.Write(b)
	}
	n, err := 0, error(syscall.ECONNRESET)
	switch c.mode {
	case shortWrite:
		n, _ = c.Conn.Write(b[:len(b)/2])
	case stalledRead:
		time.Sleep(c.stall)
		err = os.ErrDeadlineExceeded
	}
	c.Conn.Close()
	return n, err
}

// roundBatch is batch i of `round` from→to: its values name all four, so a
// batch delivered in the wrong round, slot or order shows.
func roundBatch(round, from, to, i int) []int {
	b := make([]int, i+1)
	for k := range b {
		b[k] = round<<24 | from<<16 | to<<8 | i
	}
	return b
}

// exchange runs one round: every endpoint, on its own goroutine as the
// engines' workers do, sends `batches` batches to every endpoint (itself
// included) and finishes the round, while every Drain runs under
// drainOrTimeout. It returns a copy of what each endpoint drained.
func exchange(t *testing.T, tr *RPC[int], round, batches int) [][][]int {
	t.Helper()
	var wg sync.WaitGroup
	for from := 0; from < tr.n; from++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := 0; to < tr.n; to++ {
				for i := 0; i < batches; i++ {
					tr.Send(from, to, roundBatch(round, from, to, i))
				}
			}
			tr.FinishRound(from)
		}()
	}
	got := make([][][]int, tr.n)
	for to := range got {
		for _, b := range drainOrTimeout(t, tr, to) {
			got[to] = append(got[to], slices.Clone(b))
		}
	}
	wg.Wait()
	return got
}

// requireTransient fails unless err is a transient *Error.
func requireTransient(t *testing.T, err error) {
	t.Helper()
	var te *Error
	if !errors.As(err, &te) || !IsTransient(err) {
		t.Fatalf("Err() = %v, want a transient *transport.Error", err)
	}
}

// TestRPCConnFaultsRecoverThroughReset severs one seeded connection mid-round
// in each of three ways. The round must end with a transient typed error and
// every Drain awake, the failed frame and every one after it booked at 0 wire
// bytes, and after Reset the next round must deliver exactly its own batches,
// in (sender, send) order, with nothing from before the reset.
func TestRPCConnFaultsRecoverThroughReset(t *testing.T) {
	const n, batches = 3, 3
	modes := []struct {
		name string
		mode connFault
	}{{"short-write", shortWrite}, {"reset-after-k", resetAfterK}, {"stalled-read", stalledRead}}
	for _, m := range modes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", m.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				from := rng.Intn(n)
				to := (from + 1 + rng.Intn(n-1)) % n
				// after == batches fails the round marker itself.
				fc := &faultConn{mode: m.mode, after: rng.Intn(batches + 1),
					stall: time.Duration(1+rng.Intn(20)) * time.Millisecond}
				tr, err := NewRPC[int](n, intCodec{})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				tr.encMu[from].Lock()
				fc.Conn, tr.conns[from][to] = tr.conns[from][to], fc
				tr.encMu[from].Unlock()

				wire0 := tr.Matrix().Snapshot().Wire[from][to]
				exchange(t, tr, 0, batches)
				requireTransient(t, tr.Err())
				var want int64
				for i := 0; i < fc.after; i++ {
					want += frameWireBytes(from, to, roundBatch(0, from, to, i), bodyOf[int](intCodec{}))
				}
				if got := tr.Matrix().Snapshot().Wire[from][to] - wire0; got != want {
					t.Fatalf("%d→%d booked %d wire bytes, want %d: the %d frames written whole", from, to, got, want, fc.after)
				}

				if err := tr.Reset(); err != nil {
					t.Fatal(err)
				}
				got := exchange(t, tr, 1, batches)
				if err := tr.Err(); err != nil {
					t.Fatalf("round after Reset: %v", err)
				}
				for dst := range got {
					var want [][]int
					for src := 0; src < n; src++ {
						for i := 0; i < batches; i++ {
							want = append(want, roundBatch(1, src, dst, i))
						}
					}
					if !slices.EqualFunc(got[dst], want, slices.Equal) {
						t.Fatalf("endpoint %d drained %v after Reset, want %v", dst, got[dst], want)
					}
				}
			})
		}
	}
}

// chunk is an opaque 8 KiB message: megabytes go on the wire at one copy per
// message, which stays cheap under the race detector.
type chunk [8 << 10]byte

type chunkCodec struct{}

func (chunkCodec) EncodedSize(chunk) int             { return len(chunk{}) }
func (chunkCodec) FixedSize() int                    { return len(chunk{}) }
func (chunkCodec) Append(dst []byte, m chunk) []byte { return append(dst, m[:]...) }

func (chunkCodec) Decode(src []byte) (chunk, int, error) {
	var m chunk
	if len(src) < len(m) {
		return m, 0, graph.ErrShortBuffer
	}
	copy(m[:], src)
	return m, len(m), nil
}

// TestRPCSeveredBatchNeverShortSilently: an 8 MiB batch is written on 0→1 and
// the connection is closed while its tail may still be in flight, then the
// round goes on. Re-dialling and resending single frames without
// acknowledgements completes such rounds short with Err() == nil; every
// round must be complete or carry a transient error, and Reset must clear it.
func TestRPCSeveredBatchNeverShortSilently(t *testing.T) {
	const big, rounds = 1 << 10, 200
	tr, err := NewRPC[chunk](2, chunkCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	batch := make([]chunk, big)
	for r := 0; r < rounds; r++ {
		tr.Send(0, 1, batch)
		tr.encMu[0].Lock()
		tr.conns[0][1].Close()
		tr.encMu[0].Unlock()
		tr.Send(0, 1, batch[:1])
		tr.FinishRound(0)
		tr.FinishRound(1)
		got := countMsgs(drainOrTimeout(t, tr, 1))
		drainOrTimeout(t, tr, 0)
		err := tr.Err()
		if err == nil {
			if got != big+1 {
				t.Fatalf("round %d delivered %d of %d messages with Err() == nil", r, got, big+1)
			}
			continue
		}
		requireTransient(t, err)
		if err := tr.Reset(); err != nil {
			t.Fatalf("round %d: Reset: %v", r, err)
		}
		if tr.Err() != nil {
			t.Fatalf("round %d: Reset left Err() = %v", r, tr.Err())
		}
	}
}

// TestRPCCloseWaitsForReceiveLoops: Close returns only once every receive
// loop has, so none outlives it. A loop is held between reading a frame and
// depositing it while Close starts; the batch must be in the inbox by the
// time Close returns, and nothing may land after.
func TestRPCCloseWaitsForReceiveLoops(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	in := &tr.inboxes[1]
	in.mu.Lock()
	tr.Send(0, 1, make([]int, 1<<16))
	for tr.stats.decodes.Load() == 0 { // the frame is read; its loop now waits for in.mu
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { tr.Close(); close(closed) }()
	time.Sleep(10 * time.Millisecond)
	in.mu.Unlock()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	landed := func() int {
		in.mu.Lock()
		defer in.mu.Unlock()
		return len(in.slots[0])
	}
	if got := landed(); got != 1 {
		t.Fatalf("%d batches in the inbox when Close returned, want the 1 its loop had read", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := landed(); got != 1 {
		t.Fatalf("%d batches in the inbox after Close, want 1: a receive loop outlived it", got)
	}
}

// TestRPCResetDialErrorIsTyped: a Reset that cannot re-dial a peer returns a
// fatal *Error with Op "dial", records it, and leaves no Drain waiting.
func TestRPCResetDialErrorIsTyped(t *testing.T) {
	tr, err := NewRPC[int](3, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.listeners[1].Close()
	rerr := tr.Reset()
	var te *Error
	if !errors.As(rerr, &te) || te.Op != "dial" || te.Peer != 1 || IsTransient(rerr) {
		t.Fatalf("Reset = %v, want a fatal dial *transport.Error at peer 1", rerr)
	}
	if tr.Err() != rerr {
		t.Fatalf("Err() = %v, want the dial error", tr.Err())
	}
	for to := 0; to < 3; to++ {
		drainOrTimeout(t, tr, to)
	}
	if err := tr.Reset(); err != rerr {
		t.Fatalf("Reset after a fatal error = %v, want it returned", err)
	}
}

// TestRPCCorruptFrameIsTypedFatal is the reproduction of a silent
// divergence: a frame with undefined flag bits lands on 0→1, the receiver
// drops the stream, and the batches and round marker written behind it are
// lost. Whatever subset survives, the barrier must see a typed fatal error —
// no later round can be trusted, so even a checkpointed run fails — never
// Err() == nil, and no Drain may wait for the lost marker.
func TestRPCCorruptFrameIsTypedFatal(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	bad := appendFrame(nil, 0, 1, false, []int{9}, bodyOf[int](intCodec{}))
	bad[4] = 0x80 // flags byte: a bit this dialect does not define
	tr.encMu[0].Lock()
	_, werr := tr.conns[0][1].Write(bad)
	tr.encMu[0].Unlock()
	if werr != nil {
		t.Fatal(werr)
	}

	tr.Send(0, 1, []int{1, 2})
	tr.Send(0, 1, []int{3})
	tr.FinishRound(0)
	tr.FinishRound(1)
	got := countMsgs(drainOrTimeout(t, tr, 1)) // must not hang on a marker the torn stream swallowed
	drainOrTimeout(t, tr, 0)

	rerr := tr.Err()
	if !errors.Is(rerr, ErrFrameCorrupt) || IsTransient(rerr) {
		t.Fatalf("delivered %d of 3 messages with Err() = %v; want a fatal ErrFrameCorrupt", got, rerr)
	}
	var te *Error
	if !errors.As(rerr, &te) || te.Op != "recv" || te.Peer != 1 {
		t.Fatalf("want a typed recv error at peer 1, got %#v", rerr)
	}
}

// TestRPCRoundEndWithBodyIsTypedFatal: a round-end frame that carries
// messages, written on a live connection, is reported by Err as a fatal
// ErrFrameCorrupt — not credited as a marker while its batch is dropped, which
// would complete the round short without a word — and Drain does not hang.
func TestRPCRoundEndWithBodyIsTypedFatal(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.encMu[0].Lock()
	_, werr := tr.conns[0][1].Write(appendFrame(nil, 0, 1, true, []int{4, 5}, bodyOf[int](intCodec{})))
	tr.encMu[0].Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	tr.FinishRound(0)
	tr.FinishRound(1)
	drainOrTimeout(t, tr, 1)
	drainOrTimeout(t, tr, 0)
	rerr := tr.Err()
	var te *Error
	if !errors.Is(rerr, ErrFrameCorrupt) || IsTransient(rerr) || !errors.As(rerr, &te) || te.Op != "recv" || te.Peer != 1 {
		t.Fatalf("Err() = %v after a round-end frame with 2 messages; want a fatal recv ErrFrameCorrupt at peer 1", rerr)
	}
}

// TestRPCFatalAfterTransientUnblocksDrain: a fatal error that follows a
// recorded transient one replaces it, and Reset does not clear it. Here the
// fatal error is an oversized length prefix on 0→1, which kills the stream
// before endpoint 0's marker could arrive. The transient error already broke
// the rounds, so Drain(1) returns before or after the receive loop reads the
// prefix; the test waits for that read, then checks the fatal error stands.
func TestRPCFatalAfterTransientUnblocksDrain(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.recordErr(&Error{Op: "send", Peer: 1, Retryable: true, Err: errors.New("injected")})
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrameBytes+1)
	tr.encMu[0].Lock()
	_, werr := tr.conns[0][1].Write(hdr[:])
	tr.encMu[0].Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	tr.FinishRound(1)
	drainOrTimeout(t, tr, 1)
	for deadline := time.Now().Add(10 * time.Second); IsTransient(tr.Err()) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	rerr := tr.Err()
	if rerr == nil || IsTransient(rerr) {
		t.Fatalf("Err() = %v after an oversized frame; want the fatal recv error, not the transient one", rerr)
	}
	if err := tr.Reset(); err != rerr {
		t.Fatalf("Reset = %v, want the fatal error it cannot clear", err)
	}
	drainOrTimeout(t, tr, 1)
}

// TestRPCBatchFromUnknownSenderRejected: a well-formed batch frame naming a
// sender outside [0,n) must be refused like a marker from one, before its
// provenance reaches code that indexes by sender.
func TestRPCBatchFromUnknownSenderRejected(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.encMu[0].Lock()
	_, werr := tr.conns[0][1].Write(appendFrame(nil, 7, 1, false, []int{9}, bodyOf[int](intCodec{})))
	tr.encMu[0].Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	tr.FinishRound(0)
	tr.FinishRound(1)
	if got := countMsgs(drainOrTimeout(t, tr, 1)); got != 0 {
		t.Fatalf("a batch from endpoint 7 of 2 was delivered (%d msgs)", got)
	}
	if rerr := tr.Err(); !errors.Is(rerr, ErrFrameCorrupt) {
		t.Fatalf("want ErrFrameCorrupt, got %v", rerr)
	}
}

func countMsgs[M any](batches [][]M) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
