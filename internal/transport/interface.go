package transport

import (
	"errors"

	"cyclops/internal/graph"
)

// Network selects how a simulated cluster's workers exchange messages. Both
// networks speak one wire format — the binary frames of frame.go — and book
// the same wire bytes for the same batch; over TCP the frames are
// materialized and each round marker adds one FrameHeaderBytes.
type Network int

const (
	// InProcess uses the Local transport: goroutine-to-goroutine queues
	// with exact byte/message accounting. The default.
	InProcess Network = iota
	// TCPLoopback uses the RPC transport: codec-encoded binary frames over
	// loopback TCP sockets, exercising serialisation and the round
	// protocol end to end.
	TCPLoopback
)

// String implements fmt.Stringer.
func (n Network) String() string {
	switch n {
	case InProcess:
		return "in-process"
	case TCPLoopback:
		return "tcp-loopback"
	default:
		return "Network(?)"
	}
}

// Interface is the transport contract the engines program against.
//
// The round protocol: a worker Sends any number of batches during a
// superstep phase and then calls FinishRound exactly once; Drain returns
// every batch addressed to a worker once all workers' round markers have
// arrived. For the in-process transport FinishRound is a no-op and Drain is
// immediate (the engines' phase barriers provide the ordering); for the TCP
// transport the markers are what makes Drain safe against in-flight frames.
type Interface[M any] interface {
	// NumEndpoints reports the number of connected workers.
	NumEndpoints() int
	// Send delivers a batch from one worker to another. The transport owns
	// the batch slice afterwards.
	Send(from, to int, batch []M)
	// FinishRound marks the end of `from`'s sends for the current round.
	FinishRound(from int)
	// Drain returns and clears all batches addressed to `to` for the
	// current round, by sender and then in each sender's send order, on
	// both networks: engines that fold values in drain order get
	// bit-identical results in-process and over TCP. They are valid until
	// the next Drain(to), which may reuse their memory.
	Drain(to int) [][]M
	// Stats exposes the traffic counters.
	Stats() *Stats
	// Matrix exposes the per-peer traffic counters: messages and wire bytes
	// per (sender, receiver) pair. Its grand totals equal Stats exactly.
	Matrix() *Matrix
	// Err reports the first asynchronous transport failure, if any.
	Err() error
	// Reset readies the transport for a replay from a checkpoint, the one
	// recovery path (§3.6): it empties every inbox and round, clears a
	// transient error and, over TCP, dials a fresh mesh. Every Restore calls
	// it through Shell.Rewind; no Send, FinishRound or Drain may run beside
	// it. A fatal error stays, and Reset returns it.
	Reset() error
	// Close releases sockets and wakes blocked Drains.
	Close() error
	// SerializeNanos reports the cumulative wire-serialisation time charged
	// to sender `from`, in nanoseconds. Zero for Local, which prices frames
	// without materializing them; the RPC transport times its frame
	// encoding. Differences of this counter across a phase feed the
	// Serialize span — measured wall clock, quarantined like every span
	// duration.
	SerializeNanos(from int) int64
}

// Local implements Interface (FinishRound and Close are no-ops, Err never
// fires — in-process delivery cannot fail).

// FinishRound implements Interface.
func (t *Local[M]) FinishRound(int) {}

// Err implements Interface.
func (t *Local[M]) Err() error { return nil }

// Close implements Interface.
func (t *Local[M]) Close() error { return nil }

var _ Interface[int] = (*Local[int])(nil)

// New constructs a transport for the requested network. mode selects how
// InProcess locks its inboxes (the TCP transport always takes one mutex per
// inbox; its contention is real, not simulated). codec encodes and
// prices every frame, identically on both networks; a nil codec is an error —
// there is one wire format and nothing to fall back to. A BodyCodec encodes
// whole frame bodies; any other codec goes message by message, priced per
// batch when it has FixedSize/BodySize. The codec is the only price: wire
// bytes are the one byte count, so sizeOf, a per-message size estimate, must
// be nil.
func New[M any](network Network, n int, mode QueueMode, sizeOf func(M) int64, codec graph.Codec[M]) (Interface[M], error) {
	if codec == nil {
		return nil, errors.New("transport: a message codec is required")
	}
	if sizeOf != nil {
		return nil, errors.New("transport: the codec prices traffic; pass a nil size estimate")
	}
	switch network {
	case InProcess:
		return NewLocal[M](n, mode, codec), nil
	case TCPLoopback:
		return NewRPC[M](n, codec)
	default:
		return nil, errUnknownNetwork(int(network))
	}
}

type errUnknownNetwork int

func (e errUnknownNetwork) Error() string { return "transport: unknown network mode" }
