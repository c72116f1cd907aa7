package cyclops

import (
	"errors"
	"math"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

// testPlan is a fixed three-worker send plan, four masters per worker
// (replica slots start at 4): 0→1 has 11 entries and 0→2 three, so their
// presence bitmaps end mid-byte; 1→0 has 45, so one message ships cheaper by
// slot; 2→0 has 72, so two messages sit just inside the bitmap's side of the
// choice (9 ≤ 2×5 bytes); 2→1 and every self row are empty.
func testPlan() []graph.CSR[planEntry] {
	rows := map[[2]int][]planEntry{
		{0, 1}: {{0, 4}, {0, 5}, {1, 6}, {1, 7}, {2, 9}, {2, 10}, {3, 11}, {3, 12}, {3, 14}, {3, 15}, {3, 20}},
		{0, 2}: {{1, 4}, {2, 5}, {3, 6}},
	}
	for i := int32(0); i < 45; i++ {
		rows[[2]int{1, 0}] = append(rows[[2]int{1, 0}], planEntry{master: i * 4 / 45, replica: 4 + i})
	}
	for i := int32(0); i < 72; i++ {
		rows[[2]int{2, 0}] = append(rows[[2]int{2, 0}], planEntry{master: i * 4 / 72, replica: 49 + i})
	}
	return planOf(3, rows)
}

// planOf builds a send plan for workers workers from its rows by (from, to).
func planOf(workers int, rows map[[2]int][]planEntry) []graph.CSR[planEntry] {
	plan := make([]graph.CSR[planEntry], workers)
	for w := range plan {
		offsets, items := make([]int64, workers+1), []planEntry(nil)
		for p := 0; p < workers; p++ {
			items = append(items, rows[[2]int{w, p}]...)
			offsets[p+1] = int64(len(items))
		}
		plan[w] = graph.NewCSR(offsets, items)
	}
	return plan
}

// testCodec is the raw form: graph.Float64Codec declares its values raw, so
// they are copied. genericCodec is the generic form, the same codec behind a
// wrapper that hides the declaration, so every value goes through Append and
// Decode; both must write and read the same bytes.
var (
	testCodec    = newSyncCodec[float64](graph.Float64Codec{}, testPlan())
	genericCodec = newSyncCodec[float64](rawBlind[float64]{graph.Float64Codec{}, 8}, testCodec.plan)
)

// rawBlind hides a codec's Raw64 declaration and declares fixed as its
// FixedSize (0: none).
type rawBlind[M any] struct {
	graph.Codec[M]
	fixed int
}

func (c rawBlind[M]) FixedSize() int { return c.fixed }

// errClass names an error as the frame decoder's callers tell them apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, graph.ErrShortBuffer):
		return "short"
	case errors.Is(err, transport.ErrFrameCorrupt):
		return "corrupt"
	}
	return "untyped: " + err.Error()
}

type fmsg = syncMsg[float64]

func sameMsgs(a, b []fmsg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Activate != b[i].Activate || !sameBits(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}

// bodyCases are frames of every layout: (from, to, batch, positional).
var bodyCases = []struct {
	name       string
	from, to   int
	batch      []fmsg
	positional bool
}{
	{"dense, uniform activation", 0, 1, []fmsg{{Slot: 4, Val: 1, Activate: true}, {Slot: 5, Val: 2, Activate: true},
		{Slot: 6, Val: 3, Activate: true}, {Slot: 7, Val: 4, Activate: true}, {Slot: 9, Val: 5, Activate: true},
		{Slot: 10, Val: 6, Activate: true}, {Slot: 11, Val: 7, Activate: true}, {Slot: 12, Val: 8, Activate: true},
		{Slot: 14, Val: 9, Activate: true}, {Slot: 15, Val: 10, Activate: true}, {Slot: 20, Val: math.NaN(), Activate: true}}, true},
	{"subsequence, mixed activation", 1, 0, []fmsg{{Slot: 4, Val: 1, Activate: true}, {Slot: 6, Val: -0.0}, {Slot: 7, Val: 3, Activate: true},
		{Slot: 12, Val: math.Inf(1)}, {Slot: 21, Val: 5, Activate: true}}, true},
	{"one of three, no activation", 0, 2, []fmsg{{Slot: 5, Val: 0.5}}, true},
	{"sparse: slots beat the bitmap", 1, 0, []fmsg{{Slot: 21, Val: 1}}, false},
	{"two of 72: the bitmap still wins", 2, 0, []fmsg{{Slot: 49, Val: 1}, {Slot: 120, Val: 2}}, true},
	{"out of plan order", 0, 2, []fmsg{{Slot: 6, Val: 1}, {Slot: 4, Val: 2}}, false},
	{"repeated replica", 0, 1, []fmsg{{Slot: 4, Val: 1}, {Slot: 4, Val: 1}, {Slot: 5, Val: 2}}, false},
	{"foreign master slot", 0, 1, []fmsg{{Slot: 0, Val: 777}}, false},
	{"self-send", 1, 1, []fmsg{{Slot: 5, Val: 1, Activate: true}, {Slot: 6, Val: 2, Activate: true}}, false},
}

// FuzzSyncFrameDecode: arbitrary bytes against testPlan never panic the
// decoder, decode alike through the raw and the generic form (the same batch
// or the same error class), and never yield a slot outside the from→to plan
// (so never a master slot); whatever it accepts re-encodes to a body that
// decodes to the same batch.
func FuzzSyncFrameDecode(f *testing.F) {
	for _, tc := range bodyCases {
		f.Add(uint8(tc.from), uint8(tc.to), uint8(len(tc.batch)), testCodec.AppendBody(nil, tc.from, tc.to, tc.batch))
	}
	dense := testCodec.AppendBody(nil, 0, 1, bodyCases[0].batch)
	f.Add(uint8(0), uint8(1), uint8(11), dense[:2])                                       // torn bitmap
	f.Add(uint8(0), uint8(1), uint8(10), dense)                                           // count ≠ popcount
	f.Add(uint8(0), uint8(1), uint8(11), append([]byte{2, 0xFF, 0x0F}, dense[3:]...))     // a bit past the plan
	f.Add(uint8(0), uint8(1), uint8(11), append([]byte{0x10}, dense[1:]...))              // undefined mode bit
	f.Add(uint8(0), uint8(1), uint8(11), append([]byte{bodyActOn}, dense[1:]...))         // on without uniform
	f.Add(uint8(3), uint8(1), uint8(1), []byte{1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown sender
	f.Fuzz(func(t *testing.T, from, to, count uint8, body []byte) {
		if count == 0 || int(count) > len(body) {
			return // the frame decoder never asks for these
		}
		fw, pw := int(from)%4, int(to)%4 // 3 names no worker
		batch, generic := make([]fmsg, count), make([]fmsg, count)
		err, gerr := testCodec.DecodeBody(body, fw, pw, batch), genericCodec.DecodeBody(body, fw, pw, generic)
		if errClass(err) != errClass(gerr) || err == nil && !sameMsgs(batch, generic) {
			t.Fatalf("raw form decodes to %+v, %v; generic form to %+v, %v", batch, err, generic, gerr)
		}
		if err != nil {
			if c := errClass(err); c != "short" && c != "corrupt" {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		row := testCodec.plan[fw].Row(pw)
		for _, m := range batch {
			in := false
			for _, pe := range row {
				in = in || pe.replica == m.Slot
			}
			if !in {
				t.Fatalf("decoded slot %d outside the %d→%d plan %v", m.Slot, fw, pw, row)
			}
		}
		// Append → Decode round-trips, and the encoder's layout is never
		// larger than one the decoder accepted for the same batch.
		again := testCodec.AppendBody(nil, fw, pw, batch)
		back := make([]fmsg, count)
		if err := testCodec.DecodeBody(again, fw, pw, back); err != nil || !sameMsgs(back, batch) {
			t.Fatalf("re-encoded body %x decodes to %+v, %v; want %+v", again, back, err, batch)
		}
		if len(again) > len(body) {
			t.Fatalf("re-encoding grew the body from %d to %d bytes", len(body), len(again))
		}
	})
}
