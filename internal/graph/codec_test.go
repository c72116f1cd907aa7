package graph

import (
	"math"
	"testing"
)

// roundTrip encodes then decodes via the codec and checks EncodedSize
// exactness — the property the in-process transport's wire accounting
// depends on.
func roundTrip[M any](t *testing.T, c Codec[M], m M, eq func(a, b M) bool) {
	t.Helper()
	buf := c.Append(nil, m)
	if len(buf) != c.EncodedSize(m) {
		t.Fatalf("Append wrote %d bytes, EncodedSize says %d", len(buf), c.EncodedSize(m))
	}
	got, n, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(buf))
	}
	if !eq(got, m) {
		t.Fatalf("round trip: got %v, want %v", got, m)
	}
	// A truncated buffer must error, never return a partial value.
	if len(buf) > 0 {
		if _, _, err := c.Decode(buf[:len(buf)-1]); err == nil {
			t.Fatal("Decode accepted a truncated buffer")
		}
	}
}

func TestFloat64Codec(t *testing.T) {
	eq := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, v := range []float64{0, 1, -1, 0.15, math.Inf(1), math.NaN(), math.MaxFloat64} {
		roundTrip[float64](t, Float64Codec{}, v, eq)
	}
}

func TestInt64Codec(t *testing.T) {
	eq := func(a, b int64) bool { return a == b }
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		roundTrip[int64](t, Int64Codec{}, v, eq)
	}
}

func TestFloat64SliceCodec(t *testing.T) {
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, v := range [][]float64{nil, {}, {1}, {0.25, -3, 1e300}} {
		if len(v) == 0 {
			// Truncation check in roundTrip needs non-empty buffers;
			// length-only encodings get checked directly.
			buf := Float64SliceCodec{}.Append(nil, v)
			got, n, err := Float64SliceCodec{}.Decode(buf)
			if err != nil || n != 4 || len(got) != 0 {
				t.Fatalf("empty slice: got %v n=%d err=%v", got, n, err)
			}
			continue
		}
		roundTrip[[]float64](t, Float64SliceCodec{}, v, eq)
	}
}

// TestCodecAppendReusesBuffer: Append into a buffer with spare capacity must
// not allocate — the arena property the per-peer frame buffers rely on.
func TestCodecAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 1024)
	c := Float64Codec{}
	allocs := testing.AllocsPerRun(100, func() {
		b := buf[:0]
		for i := 0; i < 64; i++ {
			b = c.Append(b, float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("Append into preallocated buffer allocates %.1f per run, want 0", allocs)
	}
}

// rawOnly declares Raw64 but no FixedSize.
type rawOnly struct{ Int64Codec }

func (rawOnly) FixedSize() int { return 0 }

// TestRaw64: the raw declaration holds only with an 8-byte FixedSize and an
// 8-byte message, and Word64 is then the bytes Append writes.
func TestRaw64(t *testing.T) {
	if !Raw64[float64](Float64Codec{}) || !Raw64[int64](Int64Codec{}) {
		t.Fatal("Float64Codec and Int64Codec must read as raw")
	}
	if Raw64[int64](rawOnly{}) || Raw64[[]float64](Float64SliceCodec{}) {
		t.Fatal("a codec without an 8-byte FixedSize reads as raw")
	}
	for _, v := range []float64{0, -0.15, math.Inf(-1), math.NaN()} {
		if got, want := AppendUint64(nil, Word64(&v)), (Float64Codec{}).Append(nil, v); string(got) != string(want) {
			t.Fatalf("Word64(%v) = % x, Append writes % x", v, got, want)
		}
		if back := FromWord64[float64](Word64(&v)); math.Float64bits(back) != math.Float64bits(v) {
			t.Fatalf("FromWord64(Word64(%v)) = %v", v, back)
		}
	}
}
