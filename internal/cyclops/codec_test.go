package cyclops

import (
	"errors"
	"math"
	"slices"
	"testing"
	"unsafe"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
	"cyclops/internal/transport"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCodecContract: the sync message every replica update travels in keeps
// graph.Codec's contract over a fixed-width and a variable-width value, and
// the sync frame body keeps transport.BodyCodec's.
func TestCodecContract(t *testing.T) {
	type fm = syncMsg[float64]
	codectest.Check(t, syncCodec[float64]{inner: graph.Float64Codec{}},
		func(a, b fm) bool { return a.Slot == b.Slot && a.Activate == b.Activate && sameBits(a.Val, b.Val) },
		fm{}, fm{Slot: 0, Val: 0.15, Activate: true}, fm{Slot: math.MaxInt32, Val: math.NaN()},
		fm{Slot: 1, Val: math.Copysign(0, -1), Activate: true}, fm{Slot: 1 << 20, Val: math.Inf(-1)},
		fm{Slot: 255, Val: math.Inf(1), Activate: true})

	type vm = syncMsg[[]float64]
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 3
	}
	codectest.Check(t, syncCodec[[]float64]{inner: graph.Float64SliceCodec{}},
		func(a, b vm) bool {
			return a.Slot == b.Slot && a.Activate == b.Activate && slices.EqualFunc(a.Val, b.Val, sameBits)
		},
		vm{}, vm{Slot: math.MaxInt32, Val: []float64{}, Activate: true},
		vm{Slot: 9, Val: []float64{math.NaN(), math.Copysign(0, -1)}}, vm{Slot: 0, Val: long, Activate: true})

	// As a frame-body codec over testPlan, in the raw and the generic form:
	// BodySize is what AppendBody writes, with the values' width multiplied
	// out or summed per message, each batch takes the layout it should, the
	// smaller of the two, and every batch the plan can address decodes back
	// bit for bit — into a grown buffer and a reused batch with no
	// allocation.
	for _, tc := range bodyCases {
		for _, form := range []struct {
			name string
			c    syncCodec[float64]
		}{{"body/", testCodec}, {"generic-body/", genericCodec}} {
			t.Run(form.name+tc.name, func(t *testing.T) {
				c, summed := form.c, form.c
				summed.width = 0
				body := c.AppendBody(nil, tc.from, tc.to, tc.batch)
				if n, m := c.BodySize(tc.from, tc.to, tc.batch), summed.BodySize(tc.from, tc.to, tc.batch); len(body) != n || n != m {
					t.Fatalf("AppendBody wrote %d bytes, BodySize says %d (%d summed per message)", len(body), n, m)
				}
				if got := body[0] != bodyBySlot; got != tc.positional {
					t.Fatalf("positional = %v, want %v (mode %#x)", got, tc.positional, body[0])
				}
				bySlot := 1 + 13*len(tc.batch)
				if tc.positional && len(body) > bySlot || !tc.positional && len(body) != bySlot {
					t.Fatalf("%d-byte body, slot form is %d bytes", len(body), bySlot)
				}
				got := make([]fmsg, len(tc.batch))
				err := c.DecodeBody(body, tc.from, tc.to, got)
				if foreign := tc.name == "foreign master slot" || tc.name == "self-send"; foreign {
					if !errors.Is(err, transport.ErrFrameCorrupt) {
						t.Fatalf("slot outside the plan decoded: err %v", err)
					}
					return
				}
				if err != nil || !sameMsgs(got, tc.batch) {
					t.Fatalf("decode = %+v, %v; want %+v", got, err, tc.batch)
				}
				if a := testing.AllocsPerRun(20, func() { body = c.AppendBody(body[:0], tc.from, tc.to, tc.batch) }); a != 0 {
					t.Errorf("AppendBody into a grown buffer allocates %v objects", a)
				}
				if a := testing.AllocsPerRun(20, func() { _ = c.DecodeBody(body, tc.from, tc.to, got) }); a != 0 {
					t.Errorf("DecodeBody into a reused batch allocates %v objects", a)
				}
			})
		}
	}
}

// TestSyncMsgPacked pins the message's size: a batch holds one per replica,
// so a field that re-pads it shows up here before it shows up as alloc_mb.
func TestSyncMsgPacked(t *testing.T) {
	if got := unsafe.Sizeof(syncMsg[float64]{}); got != 16 {
		t.Fatalf("syncMsg[float64] is %d B, want 16", got)
	}
}
