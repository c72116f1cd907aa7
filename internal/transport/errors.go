package transport

import (
	"errors"
	"fmt"
)

// Typed transport failures. The engines' recovery path (§3.6) needs to tell
// a fault it can roll back from (a dropped frame, a timed-out write, an
// injected chaos fault) apart from one it cannot (a closed transport, a
// protocol violation, an undecodable frame). Every asynchronous failure
// surfaced through Err is an *Error; Transient says which side it falls on.

// Sentinel causes wrapped by *Error.
var (
	// ErrClosed reports an operation on a transport after Close. Fatal: the
	// sockets are gone and no recovery round can bring them back.
	ErrClosed = errors.New("transport closed")
	// ErrRoundViolation reports a breach of the FinishRound-exactly-once
	// contract: an endpoint finished the same round twice before the
	// receivers drained it. Fatal: the round protocol is out of sync and
	// Drain results can no longer be trusted.
	ErrRoundViolation = errors.New("round finished more than once")
	// ErrFrameCorrupt reports a frame whose header is structurally invalid —
	// flag bits this version does not define. Unlike a short buffer (a torn
	// read that a retry can complete), an undefined flag means the peer
	// speaks a different frame dialect, so the decoder rejects the frame
	// before trusting any field after it.
	ErrFrameCorrupt = errors.New("frame header corrupt")
)

// Error is a typed transport failure: the failed operation, the peer it
// involved, whether the engines may recover from it, and the underlying
// cause.
type Error struct {
	// Op is the operation that failed: "send", "recv", "finish-round", or
	// "dial" when NewRPC or Reset cannot listen or connect.
	Op string
	// Peer is the remote endpoint involved, -1 when not attributable.
	Peer int
	// Retryable marks the error transient: a checkpointed engine may roll
	// back and resume instead of failing the run.
	Retryable bool
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "transient"
	}
	if e.Peer >= 0 {
		return fmt.Sprintf("transport: %s %s (peer %d): %v", kind, e.Op, e.Peer, e.Err)
	}
	return fmt.Sprintf("transport: %s %s: %v", kind, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Transient implements the classification interface IsTransient looks for.
func (e *Error) Transient() bool { return e.Retryable }

// IsTransient reports whether err is a transport fault the engines may
// recover from by restoring a checkpoint and replaying (a failed write, read
// or EOF on a connection, an injected chaos fault). Any error exposing
// a `Transient() bool` method participates; everything else is fatal.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok {
			return t.Transient()
		}
		err = errors.Unwrap(err)
	}
	return false
}
