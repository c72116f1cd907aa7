package transport

// Hardening tests for the RPC transport: idempotent/concurrent Close, typed
// fail-fast errors after Close, the FinishRound once-per-round contract
// surfacing as ErrRoundViolation instead of a hang, transparent reconnect
// with retry/reconnect accounting and a byte-identical resend, and a corrupt
// frame surfacing as a typed fatal error instead of a silent divergence.
// These run in-package so they can sever or write to a live connection
// directly.

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// drainOrTimeout guards against the exact regression these tests exist for:
// a Drain that blocks forever. It fails the test instead of hanging the run.
func drainOrTimeout(t *testing.T, tr *RPC[int], to int) [][]int {
	t.Helper()
	done := make(chan [][]int, 1)
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

func TestRPCReconnectRedeliversAndCounts(t *testing.T) {
	tr, err := NewRPC[int](2, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Round 1: healthy traffic over the initial connections.
	tr.Send(0, 1, []int{1, 2})
	tr.FinishRound(0)
	tr.FinishRound(1)
	if got := countMsgs(drainOrTimeout(t, tr, 1)); got != 2 {
		t.Fatalf("round 1 delivered %d msgs, want 2", got)
	}
	drainOrTimeout(t, tr, 0)

	// Sever 0→1 under the sender's lock, as a mid-run connection failure
	// would. The next Send's write fails and must transparently re-dial.
	tr.encMu[0].Lock()
	tr.conns[0][1].Close()
	tr.encMu[0].Unlock()

	wire0 := tr.Matrix().Snapshot().Wire[0][1]
	tr.Send(0, 1, []int{3, 4, 5})
	// Frames carry no stream state, so the resent frame is the failed one byte
	// for byte and is charged once, at exactly its computed size.
	if got, want := tr.Matrix().Snapshot().Wire[0][1]-wire0, frameWireBytes(0, 1, []int{3, 4, 5}, bodyOf[int](intCodec{})); got != want {
		t.Fatalf("resent frame charged %d wire bytes, want the frame's %d", got, want)
	}
	tr.FinishRound(0)
	tr.FinishRound(1)
	if got := countMsgs(drainOrTimeout(t, tr, 1)); got != 3 {
		t.Fatalf("post-reconnect round delivered %d msgs, want 3", got)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("a successfully retried send must not record an error: %v", err)
	}
	if tr.Stats().Retries() == 0 {
		t.Fatal("severed connection produced no retry count")
	}
	if tr.Stats().Reconnects() == 0 {
		t.Fatal("severed connection produced no reconnect count")
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
// recorded transient one replaces it and breaks the rounds. Here the fatal
// error is an oversized length prefix on 0→1, which kills the stream before
// endpoint 0's marker could arrive; were it dropped behind the transient
// error, Drain(1) would wait for that marker forever.
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
	if rerr := tr.Err(); rerr == nil || IsTransient(rerr) {
		t.Fatalf("Err() = %v after an oversized frame; want the fatal recv error, not the transient one", rerr)
	}
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

func countMsgs(batches [][]int) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}
