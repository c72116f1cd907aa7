package transport

import (
	"encoding/binary"

	"cyclops/internal/graph"
)

// Binary frame format — the one wire format: the RPC transport writes it,
// the in-process transport prices it. A frame is one Send batch (or a round-end marker) with a fixed
// header, little-endian throughout:
//
//	[4B length]  bytes that follow the prefix (flags..messages)
//	[1B flags]   bit 0 = round-end marker (count 0, no body)
//	[4B from]    sender worker id
//	[4B count]   number of messages
//	[body]       the count messages, encoded by the BodyCodec (none if 0)
//
// The header is fixed-size, so a frame's wire size is a pure function of its
// (from, to, batch) — that is what lets the in-process transport charge
// identical byte counts without materializing frames, keeping the exact-diffed
// wire accounting deterministic across transports. Nothing else rides along:
// the superstep that sent a frame is fixed by the engine's phase order.
const (
	frameFlagEnd byte = 1 << 0
	// FrameHeaderBytes is the fixed per-frame overhead: length prefix,
	// flags, sender and message count.
	FrameHeaderBytes = 4 + 1 + 4 + 4
)

// BodyCodec encodes the non-empty batch of one from→to frame as a whole: a
// graph.Codec through perMessage (Σ Append, as bsp and gas ship), or a codec
// whose two ends share state fixed at ingress, like cyclops' send plan.
// BodySize is what AppendBody writes; AppendBody must not retain dst;
// DecodeBody fills batch (the frame's count long) from all of src or errs.
type BodyCodec[M any] interface {
	BodySize(from, to int, batch []M) int
	AppendBody(dst []byte, from, to int, batch []M) []byte
	DecodeBody(src []byte, from, to int, batch []M) error
}

// bodyOf is codec's frame-body form, with how it prices a body resolved once.
func bodyOf[M any](codec graph.Codec[M]) BodyCodec[M] {
	if b, ok := codec.(BodyCodec[M]); ok {
		return b
	}
	sizer, _ := codec.(bodySizer[M])
	return perMessage[M]{Codec: codec, fixed: graph.FixedSize(codec), sizer: sizer}
}

// bodySizer is a graph.Codec that prices a body in one pass (gas' codec).
type bodySizer[M any] interface {
	BodySize(from, to int, batch []M) int
}

// perMessage encodes a body as the batch's messages back to back, priced as
// len(batch) × the codec's fixed width, else by its BodySize, else Σ EncodedSize.
type perMessage[M any] struct {
	graph.Codec[M]
	fixed int
	sizer bodySizer[M]
}

func (c perMessage[M]) BodySize(from, to int, batch []M) int {
	if c.fixed > 0 {
		return c.fixed * len(batch)
	}
	if c.sizer != nil {
		return c.sizer.BodySize(from, to, batch)
	}
	n := 0
	for i := range batch {
		n += c.EncodedSize(batch[i])
	}
	return n
}

func (c perMessage[M]) AppendBody(dst []byte, _, _ int, batch []M) []byte {
	for i := range batch {
		dst = c.Append(dst, batch[i])
	}
	return dst
}

func (c perMessage[M]) DecodeBody(src []byte, _, _ int, batch []M) error {
	for i := range batch {
		m, n, err := c.Decode(src)
		if err != nil {
			return err
		}
		batch[i], src = m, src[n:]
	}
	if len(src) != 0 {
		return graph.ErrShortBuffer
	}
	return nil
}

// frameWireBytes is the exact number of bytes appendFrame puts on the wire
// for this non-empty batch.
func frameWireBytes[M any](from, to int, batch []M, codec BodyCodec[M]) int64 {
	return FrameHeaderBytes + int64(codec.BodySize(from, to, batch))
}

// appendFrame encodes one from→to frame onto dst and returns the extended
// slice. dst is an arena-style per-peer buffer: steady-state calls reuse its
// capacity and allocate nothing.
func appendFrame[M any](dst []byte, from, to int, end bool, batch []M, codec BodyCodec[M]) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, backpatched below
	var flags byte
	if end {
		flags |= frameFlagEnd
	}
	dst = append(dst, flags)
	dst = graph.AppendUint32(dst, uint32(from))
	dst = graph.AppendUint32(dst, uint32(len(batch)))
	if len(batch) > 0 {
		dst = codec.AppendBody(dst, from, to, batch)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// decodeFrameBody parses a frame body (everything after the length prefix)
// received by `to`, into scratch when its capacity suffices, else into a
// fresh slice; either way allocation-free per message. scratch stays the last
// argument: that is how the bufretain analyzer finds it.
func decodeFrameBody[M any](body []byte, to int, codec BodyCodec[M], scratch []M) (from int, end bool, batch []M, err error) {
	if len(body) < FrameHeaderBytes-4 {
		return 0, false, nil, graph.ErrShortBuffer
	}
	flags := body[0]
	if flags&^frameFlagEnd != 0 {
		// Undefined flag bits: a peer speaking a newer (or corrupted) frame
		// dialect. Reject before trusting the rest of the header.
		return 0, false, nil, ErrFrameCorrupt
	}
	end = flags&frameFlagEnd != 0
	from = int(binary.LittleEndian.Uint32(body[1:]))
	count := int(binary.LittleEndian.Uint32(body[5:]))
	rest := body[9:]
	if end && count != 0 {
		// A round-end marker carries nothing: FinishRound writes none with
		// messages, and the receiver credits the marker without delivering a
		// batch, so messages on one would be lost without a trace.
		return 0, false, nil, ErrFrameCorrupt
	}
	if count > len(rest) {
		// Every codec encodes a message into at least one byte (the
		// graph.Codec contract), so a count exceeding the remaining bytes is
		// provably a lie — reject it before sizing the batch allocation to
		// an attacker-controlled header field.
		return 0, false, nil, graph.ErrShortBuffer
	}
	if cap(scratch) < count {
		scratch = make([]M, count)
	}
	if batch = scratch[:count]; count > 0 {
		err = codec.DecodeBody(rest, from, to, batch)
	} else if len(rest) != 0 {
		err = graph.ErrShortBuffer
	}
	if err != nil {
		return 0, false, nil, err
	}
	return from, end, batch, nil
}
