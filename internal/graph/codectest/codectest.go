// Package codectest is the runtime test of the graph.Codec contract: every
// codec's TestCodecContract and the codec fuzz targets go through Check.
package codectest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cyclops/internal/graph"
)

// Check asserts, per sample, that Append writes exactly EncodedSize bytes (a
// declared FixedSize, if any) and leaves what dst already held alone, that
// Decode returns an equal value and consumes exactly those bytes with more
// behind them, that every strict prefix of the encoding is an error (a panic
// fails the test on its own), that Append into a grown buffer allocates
// nothing, and that Decode allocates no more than the value owns: one object
// per non-empty slice field.
func Check[M any](t testing.TB, c graph.Codec[M], eq func(a, b M) bool, samples ...M) {
	t.Helper()
	fixed := graph.FixedSize(c)
	for i, m := range samples {
		id := fmt.Sprintf("%T sample %d (%.40s)", c, i, fmt.Sprintf("%+v", m))
		size, enc := c.EncodedSize(m), c.Append(nil, m)
		if len(enc) != size {
			t.Errorf("%s: Append wrote %d bytes, EncodedSize says %d", id, len(enc), size)
			continue
		}
		if fixed != 0 && (fixed != size || fixed < 1) {
			t.Errorf("%s: FixedSize says %d, EncodedSize %d", id, fixed, size)
		}
		buf := c.Append([]byte{0xA5, 0x5A}, m)
		if !bytes.Equal(buf, append([]byte{0xA5, 0x5A}, enc...)) {
			t.Errorf("%s: Append after a 2-byte prefix did not give the prefix then the same %d bytes", id, size)
		}
		if got, n, err := c.Decode(append(enc, 0xEE, 0xEE)); err != nil || n != size || !eq(got, m) {
			t.Errorf("%s: Decode = (equal %v, %d, %v), want the sample back and %d bytes consumed", id, eq(got, m), n, err, size)
		}
		for k := 0; k < size; k++ {
			if _, n, err := c.Decode(enc[:k]); err == nil {
				t.Errorf("%s: Decode accepted a %d-byte strict prefix, consuming %d", id, k, n)
			}
		}
		if a := testing.AllocsPerRun(10, func() { buf = c.Append(buf[:0], m) }); a != 0 {
			t.Errorf("%s: Append into a grown buffer allocates %v objects, want 0", id, a)
		}
		a := testing.AllocsPerRun(10, func() { _, _, _ = c.Decode(enc) })
		if own := owned(reflect.ValueOf(m)); a > own {
			t.Errorf("%s: Decode allocates %v objects, the value owns %v", id, a, own)
		}
	}
}

// owned counts the heap objects a decoded copy of v has to allocate.
func owned(v reflect.Value) (n float64) {
	if v.Kind() == reflect.Slice && v.Len() > 0 {
		return 1
	}
	for i := 0; v.Kind() == reflect.Struct && i < v.NumField(); i++ {
		n += owned(v.Field(i))
	}
	return n
}
