package transport

// Wire accounting tests: the invariants the memory observatory's wire/payload
// ratio gate stands on. Both transports price a batch with the same two
// functions — payload from sizeOf, wire from the frame format (header + Σ
// EncodedSize) — the local one by computing it, the RPC one by writing it;
// and the two books (Stats and Matrix) agree on the grand total because they
// are bumped on the same send path.

import (
	"testing"
)

func TestLocalWireIsHeaderPlusEncodedSize(t *testing.T) {
	tr := NewLocal[msg](3, PerSenderQueue, nil, msgCodec{})
	tr.Send(0, 2, []msg{{1, 1.5}, {2, 2.5}})
	tr.Send(0, 2, []msg{{7, 7.5}})
	tr.Send(1, 2, []msg{{3, 3.5}})
	tr.Send(0, 0, []msg{{4, 4.5}})

	s := tr.Stats().Snapshot()
	if s.Encodes != 0 || s.Decodes != 0 {
		t.Errorf("in-process transport performed %d encodes / %d decodes", s.Encodes, s.Decodes)
	}
	m := tr.Matrix().Snapshot()
	batches := [3][3]int64{{1, 0, 2}, {0, 0, 1}}
	for f := 0; f < 3; f++ {
		for to := 0; to < 3; to++ {
			want := batches[f][to]*FrameHeaderBytes + m.Messages[f][to]*12
			if m.WireAt(f, to) != want {
				t.Errorf("cell (%d,%d): wire %d, want %d headers + 12 B × %d msgs = %d",
					f, to, m.WireAt(f, to), batches[f][to], m.Messages[f][to], want)
			}
		}
	}
	if m.TotalWireBytes() != s.WireBytes {
		t.Errorf("matrix wire total %d != stats wire total %d", m.TotalWireBytes(), s.WireBytes)
	}
}

// TestRPCWireAccounting pins the two transports to one price list: the same
// sends cost the same payload everywhere and the same wire on every cell, the
// self-send included; over sockets each round marker adds one header to its
// remote cell and nothing else differs.
func TestRPCWireAccounting(t *testing.T) {
	sizeOf := func(m msg) int64 { return 12 }
	tr, err := NewRPC[msg](2, sizeOf, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	local := NewLocal[msg](2, PerSenderQueue, sizeOf, msgCodec{})

	for _, tr := range []Interface[msg]{tr, local} {
		tr.Send(0, 1, []msg{{1, 1}, {2, 2}, {3, 3}})
		tr.Send(0, 1, []msg{{4, 4}})
		tr.Send(0, 0, []msg{{5, 5}})
		tr.Send(1, 0, []msg{{6, 6}})
		tr.FinishRound(0)
		tr.FinishRound(1)
		tr.Drain(0)
		tr.Drain(1)
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
	}

	s, ls := tr.Stats().Snapshot(), local.Stats().Snapshot()
	if s.Encodes != 5 || s.Decodes != 5 {
		t.Errorf("socket frames: %d encodes / %d decodes, want 5/5 (3 data + 2 markers)", s.Encodes, s.Decodes)
	}
	if s.Messages != ls.Messages || s.Bytes != ls.Bytes || s.Bytes != 6*12 {
		t.Errorf("payload books differ: rpc %d msgs / %d B, local %d msgs / %d B (want sizeOf's 72 B on both)",
			s.Messages, s.Bytes, ls.Messages, ls.Bytes)
	}
	m, lm := tr.Matrix().Snapshot(), local.Matrix().Snapshot()
	for f := 0; f < 2; f++ {
		for to := 0; to < 2; to++ {
			want := lm.WireAt(f, to)
			if f != to {
				want += FrameHeaderBytes // f's round marker to `to`
			}
			if m.WireAt(f, to) != want {
				t.Errorf("cell (%d,%d): rpc wire %d, want local %d + marker = %d",
					f, to, m.WireAt(f, to), lm.WireAt(f, to), want)
			}
		}
	}
	if m.TotalWireBytes() != s.WireBytes || m.TotalBytes() != s.Bytes {
		t.Errorf("matrix totals (%d wire / %d payload) != stats totals (%d / %d)",
			m.TotalWireBytes(), m.TotalBytes(), s.WireBytes, s.Bytes)
	}
}

func TestMicroWireBytes(t *testing.T) {
	const total, senders = 20000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	if h.PayloadBytes != microPayloadBytes(total) || p.PayloadBytes != h.PayloadBytes ||
		c.PayloadBytes != h.PayloadBytes {
		t.Errorf("payload bytes disagree: hama %d powergraph %d cyclops %d",
			h.PayloadBytes, p.PayloadBytes, c.PayloadBytes)
	}
	// Hama materialises gob frames; the exact size depends on gob's varint
	// compression (integer-valued floats encode short, so wire can land under
	// the 12-byte/message logical volume), but frames always exist.
	if h.WireBytes <= 0 {
		t.Errorf("hama micro: no wire bytes recorded")
	}
	// PowerGraph's hand-rolled encoding is exact: 12 bytes per record plus a
	// 16-byte span header per batch.
	var batches int64
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		batches += int64((hi - lo + microBatch - 1) / microBatch)
	}
	if want := p.PayloadBytes + 16*batches; p.WireBytes != want {
		t.Errorf("powergraph micro: wire %d, want payload+headers %d", p.WireBytes, want)
	}
	// Cyclops writes replicas directly: payload moves, no frame exists.
	if c.WireBytes != 0 {
		t.Errorf("cyclops micro: wire %d, want 0 (replica sync serialises nothing)", c.WireBytes)
	}
}

// TestMicroEncodeDecodeSymmetry pins the Table 3 like-for-like accounting:
// the gob leg and the binary leg each decode exactly what they encode (one
// op per message on both sides), and the Cyclops leg serialises nothing.
func TestMicroEncodeDecodeSymmetry(t *testing.T) {
	const total, senders = 20000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	for _, r := range []MicroResult{h, p} {
		if r.EncodeOps != int64(total) {
			t.Errorf("%s micro: %d encode ops, want one per message (%d)", r.Impl, r.EncodeOps, total)
		}
		if r.DecodeOps != r.EncodeOps {
			t.Errorf("%s micro: decode ops %d != encode ops %d (serialisation must be symmetric)",
				r.Impl, r.DecodeOps, r.EncodeOps)
		}
	}
	if c.EncodeOps != 0 || c.DecodeOps != 0 {
		t.Errorf("cyclops micro: %d encode / %d decode ops, want 0/0 (direct writes)",
			c.EncodeOps, c.DecodeOps)
	}
}
