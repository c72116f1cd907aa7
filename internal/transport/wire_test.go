package transport

// Wire accounting tests: the invariants the gate's exact wire_bytes stands
// on. Both transports price a batch with one function — the frame format
// (header + Σ EncodedSize) — the local one by computing it, the RPC one by
// writing it; and the two books (Stats and Matrix) agree on the grand total
// because they are bumped on the same send path.

import (
	"testing"
)

func TestLocalWireIsHeaderPlusEncodedSize(t *testing.T) {
	tr := NewLocal[msg](3, PerSenderQueue, msgCodec{})
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
			if m.Wire[f][to] != want {
				t.Errorf("cell (%d,%d): wire %d, want %d headers + 12 B × %d msgs = %d",
					f, to, m.Wire[f][to], batches[f][to], m.Messages[f][to], want)
			}
		}
	}
	if m.TotalWireBytes() != s.WireBytes {
		t.Errorf("matrix wire total %d != stats wire total %d", m.TotalWireBytes(), s.WireBytes)
	}
}

// TestRPCWireAccounting pins the two transports to one price list: the same
// sends cost the same messages everywhere and the same wire on every cell,
// the self-send included; over sockets each round marker adds one header to
// its remote cell and nothing else differs.
func TestRPCWireAccounting(t *testing.T) {
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	local := NewLocal[msg](2, PerSenderQueue, msgCodec{})

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
	if s.Messages != ls.Messages || s.Messages != 6 {
		t.Errorf("message books differ: rpc %d, local %d (want 6 on both)", s.Messages, ls.Messages)
	}
	if want := ls.WireBytes + 2*FrameHeaderBytes; s.WireBytes != want {
		t.Errorf("rpc wire %d, want local %d + 2 markers = %d", s.WireBytes, ls.WireBytes, want)
	}
	m, lm := tr.Matrix().Snapshot(), local.Matrix().Snapshot()
	for f := 0; f < 2; f++ {
		for to := 0; to < 2; to++ {
			want := lm.Wire[f][to]
			if f != to {
				want += FrameHeaderBytes // f's round marker to `to`
			}
			if m.Wire[f][to] != want {
				t.Errorf("cell (%d,%d): rpc wire %d, want local %d + marker = %d",
					f, to, m.Wire[f][to], lm.Wire[f][to], want)
			}
		}
	}
	if m.TotalWireBytes() != s.WireBytes || lm.TotalWireBytes() != ls.WireBytes {
		t.Errorf("matrix wire totals (rpc %d, local %d) != stats totals (%d, %d)",
			m.TotalWireBytes(), lm.TotalWireBytes(), s.WireBytes, ls.WireBytes)
	}
}

// TestNewRejectsSizeEstimate pins the one byte book: the codec prices every
// frame, and a per-message size estimate is refused rather than ignored.
func TestNewRejectsSizeEstimate(t *testing.T) {
	for _, network := range []Network{InProcess, TCPLoopback} {
		_, err := New[msg](network, 2, PerSenderQueue, func(msg) int64 { return 16 }, msgCodec{})
		if err == nil {
			t.Errorf("%v: New accepted a size estimate beside the codec", network)
		}
	}
}

func TestMicroWireBytes(t *testing.T) {
	const total, senders = 20000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	// Hama materialises gob frames; the exact size depends on gob's varint
	// compression (integer-valued floats encode short, so wire can land under
	// the 12-byte/message logical volume), but frames always exist.
	if h.WireBytes <= 0 {
		t.Errorf("hama micro: no wire bytes recorded")
	}
	// PowerGraph's hand-rolled encoding is exact: 12 bytes per record, no
	// header.
	if want := 12 * int64(total); p.WireBytes != want {
		t.Errorf("powergraph micro: wire %d, want 12 B × %d records = %d", p.WireBytes, total, want)
	}
	// Cyclops writes replicas directly: values move, no frame exists.
	if c.WireBytes != 0 {
		t.Errorf("cyclops micro: wire %d, want 0 (replica sync serialises nothing)", c.WireBytes)
	}
}
