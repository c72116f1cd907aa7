package transport

// Binary frame format tests: round-trip fidelity, exact wire-size accounting
// (frameWireBytes must equal what appendFrame materialises, byte for byte —
// the in-process transport charges the former while the RPC transport
// measures the latter, and the perf gate diffs them exactly), and the
// zero-allocation steady state the arena-style buffers exist for.

import (
	"math"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
	"cyclops/internal/obs/span"
)

// msgCodec is the test codec for the msg type: 4-byte index + 8-byte value,
// the same 12-byte layout the Table 3 microbenchmark uses.
type msgCodec struct{}

func (msgCodec) EncodedSize(msg) int { return 12 }

func (msgCodec) Append(dst []byte, m msg) []byte {
	dst = graph.AppendUint32(dst, m.V)
	return graph.Float64Codec{}.Append(dst, m.X)
}

func (msgCodec) Decode(src []byte) (msg, int, error) {
	var m msg
	v, err := graph.Uint32At(src)
	if err != nil {
		return m, 0, err
	}
	x, n, err := graph.Float64Codec{}.Decode(src[4:])
	if err != nil {
		return m, 0, err
	}
	m.V = v
	m.X = x
	return m, 4 + n, nil
}

// intCodec carries the int payloads of the matrix and hardening tests as
// fixed 8-byte words.
type intCodec struct{}

func (intCodec) EncodedSize(int) int { return 8 }

func (intCodec) Append(dst []byte, m int) []byte {
	return graph.Int64Codec{}.Append(dst, int64(m))
}

func (intCodec) Decode(src []byte) (int, int, error) {
	v, n, err := graph.Int64Codec{}.Decode(src)
	return int(v), n, err
}

// TestCodecContract: the frame, accounting and hardening tests below lean on
// these two codecs being exact, so they go through the same check as the
// production ones.
func TestCodecContract(t *testing.T) {
	codectest.Check(t, msgCodec{},
		func(a, b msg) bool { return a.V == b.V && math.Float64bits(a.X) == math.Float64bits(b.X) },
		msg{}, msg{V: 1, X: 1.5}, msg{V: math.MaxUint32, X: math.NaN()}, msg{V: 7, X: math.Copysign(0, -1)})
	codectest.Check(t, intCodec{}, func(a, b int) bool { return a == b }, 0, 1, -1, math.MaxInt64, math.MinInt64)
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		from  int
		end   bool
		batch []msg
	}{
		// The sender id is the only stamp a frame carries: "tagged" has a
		// non-zero one, "untagged" an all-zero header.
		{"tagged batch", 3, false, []msg{{1, 1.5}, {2, -2.5}, {4294967295, 0}}},
		{"untagged batch", 0, false, []msg{{9, 9.25}}},
		{"round-end marker", 2, true, nil},
		{"empty batch", 1, false, nil},
	}
	codec := bodyOf[msg](msgCodec{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := appendFrame(nil, tc.from, 0, tc.end, tc.batch, codec)
			if got, want := int64(len(wire)), frameWireBytes(0, 1, tc.batch, codec); got != want {
				t.Fatalf("materialised %d bytes, frameWireBytes computed %d", got, want)
			}
			from, end, batch, err := decodeFrameBody(wire[4:], 0, codec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if from != tc.from || end != tc.end {
				t.Fatalf("header round-trip: got (%d,%v), want (%d,%v)", from, end, tc.from, tc.end)
			}
			if len(batch) != len(tc.batch) {
				t.Fatalf("batch length %d, want %d", len(batch), len(tc.batch))
			}
			for i := range batch {
				if batch[i] != tc.batch[i] {
					t.Fatalf("message %d: got %+v, want %+v", i, batch[i], tc.batch[i])
				}
			}
		})
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	codec := bodyOf[msg](msgCodec{})
	wire := appendFrame(nil, 1, 0, false, []msg{{1, 1}, {2, 2}}, codec)
	// Truncated body: the last message is cut short.
	if _, _, _, err := decodeFrameBody(wire[4:len(wire)-3], 0, codec, nil); err == nil {
		t.Error("truncated frame decoded without error")
	}
	// Trailing garbage: bytes past the declared message count.
	if _, _, _, err := decodeFrameBody(append(wire[4:], 0xFF), 0, codec, nil); err == nil {
		t.Error("frame with trailing bytes decoded without error")
	}
	// Shorter than the fixed header.
	if _, _, _, err := decodeFrameBody(wire[4:10], 0, codec, nil); err == nil {
		t.Error("sub-header frame decoded without error")
	}
	// Undefined flag bits: a different frame dialect, not a torn read.
	bent := append([]byte(nil), wire[4:]...)
	bent[0] |= 0x80
	if _, _, _, err := decodeFrameBody(bent, 0, codec, nil); err != ErrFrameCorrupt {
		t.Errorf("frame with undefined flag bits: err = %v, want ErrFrameCorrupt", err)
	}
	// A message count larger than the remaining bytes: the decoder must
	// reject it up front (every message costs ≥ 1 byte) rather than size an
	// allocation from the attacker-controlled header field.
	huge := append([]byte(nil), wire[4:]...)
	huge[5], huge[6], huge[7], huge[8] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, _, err := decodeFrameBody(huge, 0, codec, nil); err != graph.ErrShortBuffer {
		t.Errorf("frame with outsized count: err = %v, want ErrShortBuffer", err)
	}
}

// TestFrameScratchAliasing pins the aliasing semantics the bufretain analyzer
// polices: a batch decoded into scratch is only valid until the next decode
// into the same scratch, which clobbers it in place. A caller that retains
// the first batch across rounds observes the second round's values — exactly
// the bug class the analyzer flags at compile time.
func TestFrameScratchAliasing(t *testing.T) {
	codec := bodyOf[msg](msgCodec{})
	first := []msg{{1, 1.0}, {2, 2.0}}
	second := []msg{{7, 7.0}, {8, 8.0}}
	scratch := make([]msg, 0, 2)

	wire1 := appendFrame(nil, 0, 0, false, first, codec)
	_, _, batch1, err := decodeFrameBody(wire1[4:], 0, codec, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if batch1[0] != first[0] || batch1[1] != first[1] {
		t.Fatalf("first decode: got %+v, want %+v", batch1, first)
	}

	wire2 := appendFrame(nil, 0, 0, false, second, codec)
	_, _, batch2, err := decodeFrameBody(wire2[4:], 0, codec, scratch)
	if err != nil {
		t.Fatal(err)
	}
	// Both batches alias scratch's backing array: the second decode
	// overwrote the first batch in place.
	if &batch1[0] != &batch2[0] {
		t.Fatal("scratch decodes did not share a backing array; aliasing contract changed")
	}
	if batch1[0] != second[0] || batch1[1] != second[1] {
		t.Fatalf("retained first batch holds %+v; scratch reuse should have clobbered it to %+v",
			batch1, second)
	}
}

// TestFrameRoundTripZeroAlloc pins the tentpole's core claim: once the
// per-peer arena buffer and a receive-side scratch batch have grown to their
// high-water mark, encoding and decoding a frame allocate nothing at all.
func TestFrameRoundTripZeroAlloc(t *testing.T) {
	codec := bodyOf[msg](msgCodec{})
	batch := make([]msg, 512)
	for i := range batch {
		batch[i] = msg{uint32(i), float64(i)}
	}
	buf := appendFrame(nil, 0, 0, false, batch, codec) // grow the arena
	scratch := make([]msg, 0, len(batch))
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], 0, 0, false, batch, codec)
		_, _, out, err := decodeFrameBody(buf[4:], 0, codec, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(batch) {
			t.Fatalf("decoded %d messages, want %d", len(out), len(batch))
		}
	})
	if allocs != 0 {
		t.Errorf("frame round-trip allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestLocalCodecWireAccounting verifies the in-process transport's computed
// wire charge is exactly what a socket run of the same batches would
// materialise: frame header + per-message encoded sizes.
func TestLocalCodecWireAccounting(t *testing.T) {
	codec := bodyOf[msg](msgCodec{})
	tr := NewLocal[msg](3, PerSenderQueue, msgCodec{})
	batches := []struct {
		from, to int
		batch    []msg
	}{
		{0, 2, []msg{{1, 1.5}, {2, 2.5}}},
		{1, 2, []msg{{3, 3.5}}},
		{0, 0, []msg{{4, 4.5}}},
	}
	var wantWire int64
	for _, b := range batches {
		tr.Send(b.from, b.to, b.batch)
		wire := appendFrame(nil, b.from, 0, false, b.batch, codec)
		wantWire += int64(len(wire))
	}
	s := tr.Stats().Snapshot()
	if s.WireBytes != wantWire {
		t.Errorf("wire bytes %d, want the materialised frame total %d", s.WireBytes, wantWire)
	}
	if s.Encodes != 0 || s.Decodes != 0 {
		t.Errorf("in-process codec transport performed %d encodes / %d decodes", s.Encodes, s.Decodes)
	}
	if m := tr.Matrix().Snapshot(); m.TotalWireBytes() != s.WireBytes {
		t.Errorf("matrix wire total %d != stats wire total %d", m.TotalWireBytes(), s.WireBytes)
	}
}

// TestRPCBinaryRoundTrip drives real batches through real sockets with the
// binary codec and checks both delivery and the booked wire bytes — which
// must equal the computed frame sizes exactly (no stream state, no type
// descriptors).
func TestRPCBinaryRoundTrip(t *testing.T) {
	codec := bodyOf[msg](msgCodec{})
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	remote := []msg{{1, 1}, {2, 2}, {3, 3}}
	tr.Send(0, 1, remote)
	tr.Send(0, 0, []msg{{5, 5}}) // self-send: loopback, priced as the frame it would be
	tr.Send(1, 0, []msg{{6, 6}})
	tr.FinishRound(0)
	tr.FinishRound(1)

	got := tr.Drain(1)
	var flat []msg
	for _, b := range got {
		flat = append(flat, b...)
	}
	if len(flat) != len(remote) {
		t.Fatalf("worker 1 drained %d messages, want %d", len(flat), len(remote))
	}
	for i := range flat {
		if flat[i] != remote[i] {
			t.Fatalf("message %d: got %+v, want %+v", i, flat[i], remote[i])
		}
	}
	if d := tr.LastDeliveries(1); len(d) != 1 || d[0] != (span.Delivery{From: 0, Msgs: 3}) {
		t.Errorf("worker 1's deliveries %+v, want 3 messages from worker 0", d)
	}
	tr.Drain(0)
	if d := tr.LastDeliveries(0); len(d) != 2 || d[0] != (span.Delivery{From: 0, Msgs: 1}) ||
		d[1] != (span.Delivery{From: 1, Msgs: 1}) {
		t.Errorf("worker 0's deliveries %+v, want one message each from itself and worker 1", d)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	// Binary frames are stateless, so the measured socket bytes equal the
	// computed frame sizes exactly: one data frame 0→1, one 1→0, plus one
	// round-end marker per remote direction. The self-send is charged the
	// frame it would have been, as the in-process transport charges it.
	wantWire := frameWireBytes(0, 1, remote, codec) +
		frameWireBytes(0, 1, []msg{{6, 6}}, codec) +
		2*int64(FrameHeaderBytes) + // two round-end markers
		frameWireBytes(0, 1, []msg{{5, 5}}, codec)
	s := tr.Stats().Snapshot()
	if s.WireBytes != wantWire {
		t.Errorf("wire bytes %d, want exactly %d (header %d × frames + encoded messages)",
			s.WireBytes, wantWire, FrameHeaderBytes)
	}
	if s.Encodes != 4 || s.Decodes != 4 {
		t.Errorf("frame ops: %d encodes / %d decodes, want 4/4 (2 data + 2 markers)", s.Encodes, s.Decodes)
	}
}

// BenchmarkFrameRoundTrip is the perf-gate benchmark for the binary wire
// format: encode one 512-message frame into a reused arena buffer and decode
// it back into a reused scratch batch. CI asserts 0 allocs/op — the
// steady-state contract every remote send relies on.
func BenchmarkFrameRoundTrip(b *testing.B) {
	codec := bodyOf[msg](msgCodec{})
	batch := make([]msg, 512)
	for i := range batch {
		batch[i] = msg{uint32(i), float64(i)}
	}
	buf := appendFrame(nil, 0, 0, false, batch, codec)
	scratch := make([]msg, 0, len(batch))
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], 0, 0, false, batch, codec)
		_, _, out, err := decodeFrameBody(buf[4:], 0, codec, scratch)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(batch) {
			b.Fatal("short decode")
		}
	}
}
