package codectest

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cyclops/internal/graph"
)

// recorder is a testing.TB that keeps what Check reports instead of failing.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// fnCodec is a uint32 codec assembled from its three legs, so each case below
// breaks exactly one leg of a correct little-endian codec.
type fnCodec struct {
	size func(uint32) int
	app  func([]byte, uint32) []byte
	dec  func([]byte) (uint32, int, error)
}

func (c fnCodec) EncodedSize(m uint32) int               { return c.size(m) }
func (c fnCodec) Append(dst []byte, m uint32) []byte     { return c.app(dst, m) }
func (c fnCodec) Decode(src []byte) (uint32, int, error) { return c.dec(src) }

func good() fnCodec {
	return fnCodec{
		size: func(uint32) int { return 4 },
		app:  graph.AppendUint32,
		dec: func(src []byte) (uint32, int, error) {
			v, err := graph.Uint32At(src)
			if err != nil {
				return 0, 0, err
			}
			return v, 4, nil
		},
	}
}

// TestCheckRejectsBrokenCodecs ports the wrong codecs the retired codecsym
// and allocfree fixtures carried: Check has to report every one of them, and
// nothing on the correct codec they are derived from.
func TestCheckRejectsBrokenCodecs(t *testing.T) {
	samples := []uint32{0, 1, 0x01020304, 0xFFFFFFFF}
	eq := func(a, b uint32) bool { return a == b }

	var clean recorder
	Check(&clean, good(), eq, samples...)
	if len(clean.errs) != 0 {
		t.Fatalf("Check reports a correct codec:\n%s", strings.Join(clean.errs, "\n"))
	}

	cases := []struct {
		name  string
		wreck func(c *fnCodec)
		want  string
	}{
		{"size drifts by one byte", func(c *fnCodec) {
			c.size = func(uint32) int { return 5 }
		}, "EncodedSize says 5"},
		{"Append branch EncodedSize lacks", func(c *fnCodec) {
			app := c.app
			c.app = func(dst []byte, m uint32) []byte {
				if m&1 == 1 {
					dst = append(dst, 0xFF)
				}
				return app(dst, m)
			}
		}, "Append wrote 5 bytes, EncodedSize says 4"},
		{"Decode under-reports consumption", func(c *fnCodec) {
			dec := c.dec
			c.dec = func(src []byte) (uint32, int, error) {
				v, n, err := dec(src)
				return v, n / 2, err
			}
		}, "want the sample back and 4 bytes consumed"},
		{"big-endian Append, little-endian Decode", func(c *fnCodec) {
			c.app = binary.BigEndian.AppendUint32
		}, "want the sample back"},
		{"Append makes a fresh buffer", func(c *fnCodec) {
			app := c.app
			c.app = func(dst []byte, m uint32) []byte {
				fresh := make([]byte, len(dst), len(dst)+4)
				copy(fresh, dst)
				return app(fresh, m)
			}
		}, "Append into a grown buffer allocates"},
		{"Append overwrites what dst held", func(c *fnCodec) {
			app := c.app
			c.app = func(dst []byte, m uint32) []byte { return app(dst[:0], m) }
		}, "Append after a 2-byte prefix"},
		{"Decode pads a torn value", func(c *fnCodec) {
			c.dec = func(src []byte) (uint32, int, error) {
				var b [4]byte
				copy(b[:], src)
				return binary.LittleEndian.Uint32(b[:]), 4, nil
			}
		}, "strict prefix"},
		{"Decode allocates for a fixed-width value", func(c *fnCodec) {
			dec := c.dec
			c.dec = func(src []byte) (uint32, int, error) {
				sink = append([]byte(nil), src...)
				return dec(src)
			}
		}, "Decode allocates"},
	}
	for _, tc := range cases {
		c := good()
		tc.wreck(&c)
		var rec recorder
		Check(&rec, c, eq, samples...)
		if got := strings.Join(rec.errs, "\n"); !strings.Contains(got, tc.want) {
			t.Errorf("%s: Check reported %q, want a message containing %q", tc.name, got, tc.want)
		}
	}

	// A declared fixed width is part of the contract: the transport prices a
	// batch by it without asking EncodedSize.
	for _, tc := range []struct {
		width int
		want  string
	}{{4, ""}, {5, "FixedSize says 5, EncodedSize 4"}, {3, "FixedSize says 3"}, {-4, "FixedSize says -4"}} {
		var rec recorder
		Check(&rec, fixedCodec{good(), tc.width}, eq, samples...)
		if got := strings.Join(rec.errs, "\n"); tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
			t.Errorf("FixedSize %d: Check reported %q, want %q", tc.width, got, tc.want)
		}
	}
}

// fixedCodec declares a fixed width, true or not.
type fixedCodec struct {
	fnCodec
	width int
}

func (c fixedCodec) FixedSize() int { return c.width }

var sink []byte
