package transport

// Fuzz coverage for the binary frame decoder. The decoder sits on the trust
// boundary — every byte it parses arrived from a socket — so beyond not
// panicking it must uphold three properties on arbitrary input:
//
//  1. Canonical round-trip: any body it accepts re-encodes (via appendFrame)
//     to exactly the bytes it decoded. There is one wire form per frame, the
//     invariant the exact-diffed wire accounting depends on.
//  2. Scratch agreement: decoding into a recycled scratch batch yields the
//     same messages as a fresh decode.
//  3. A round-end marker it accepts carries no messages: the receiver
//     credits the marker and delivers nothing.
//
// Seed corpora live in testdata/fuzz/FuzzDecodeFrameBody: a data frame from
// a non-zero sender, a round-end marker, a round-end marker with a body, a
// torn frame, an undefined-flag frame, and an outsized-count frame, so CI's
// short fuzz budget starts from the interesting corners instead of
// discovering them.

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func FuzzDecodeFrameBody(f *testing.F) {
	codec := bodyOf[msg](msgCodec{})
	for _, batch := range [][]msg{
		nil,
		{{1, 1.5}},
		{{1, 1}, {2, 2}, {4294967295, -0.5}},
	} {
		wire := appendFrame(nil, 3, 0, false, batch, codec)
		f.Add(wire[4:])
	}
	end := appendFrame(nil, 1, 0, true, nil, codec)
	f.Add(end[4:])
	torn := appendFrame(nil, 0, 0, false, []msg{{5, 5}}, codec)
	f.Add(torn[4 : len(torn)-3])

	f.Fuzz(func(t *testing.T, body []byte) {
		from, endFlag, batch, err := decodeFrameBody(body, 0, codec, nil)
		if err != nil {
			return // rejected: the only requirement on bad input is no panic
		}
		if endFlag && len(batch) != 0 {
			t.Fatalf("accepted a round-end marker carrying %d messages", len(batch))
		}
		wire := appendFrame(nil, from, 0, endFlag, batch, codec)
		if got := binary.LittleEndian.Uint32(wire); int(got) != len(body) {
			t.Fatalf("re-encoded length prefix %d, decoded body was %d bytes", got, len(body))
		}
		if !bytes.Equal(wire[4:], body) {
			t.Fatalf("accepted body is not canonical:\ndecoded  %x\nreencoded %x", body, wire[4:])
		}
		scratch := make([]msg, 0, len(batch))
		_, _, again, err := decodeFrameBody(body, 0, codec, scratch)
		if err != nil {
			t.Fatalf("scratch decode failed where fresh decode succeeded: %v", err)
		}
		if len(again) != len(batch) {
			t.Fatalf("scratch decode yielded %d messages, fresh decode %d", len(again), len(batch))
		}
		for i := range again {
			// Bitwise comparison: a NaN payload round-trips bit-exactly but
			// fails ==.
			if again[i].V != batch[i].V || math.Float64bits(again[i].X) != math.Float64bits(batch[i].X) {
				t.Fatalf("message %d: scratch decode %+v, fresh decode %+v", i, again[i], batch[i])
			}
		}
	})
}
