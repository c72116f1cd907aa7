package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Codec is the hand-rolled binary wire codec every run has (see CodecFor).
// A codec encodes one message into a caller-owned buffer (arena-style:
// the transport reuses one buffer per peer across supersteps, so Append must
// not retain dst) and decodes it back. Encoding is little-endian and
// self-delimiting: EncodedSize(m) is exactly the number of bytes Append
// writes, and Decode consumes exactly that many. That exactness is load
// bearing — the in-process transport prices each frame without materializing
// it (len(batch) × FixedSize when the codec has one, else Σ EncodedSize), and
// those charges are exact-diffed by the flight-recorder gate, so any drift
// between Append and the sizes shows up as a wire-accounting regression.
// codectest.Check is the contract's test: every implementation goes through
// it in its package's TestCodecContract.
type Codec[M any] interface {
	// EncodedSize returns the exact number of bytes Append writes for m.
	// It is always at least 1: every message costs wire bytes, and the
	// frame decoder leans on that floor to reject message counts larger
	// than the bytes that follow before sizing any allocation from them.
	EncodedSize(m M) int
	// Append encodes m onto dst and returns the extended slice. It must not
	// retain dst or any sub-slice of it.
	Append(dst []byte, m M) []byte
	// Decode reads one value from the front of src, returning the value and
	// the number of bytes consumed. A short or malformed src is an error
	// (a torn frame), never a partial value.
	Decode(src []byte) (M, int, error)
}

// ErrShortBuffer reports a truncated encoding: the frame's length prefix
// promised more bytes than the codec found. Built with errors.New, not
// fmt.Errorf: the message has no verbs, the identity must stay stable for
// errors.Is, and sentinel construction should owe nothing to fmt at init.
var ErrShortBuffer = errors.New("graph: codec: short buffer")

// CodecFor returns the codec this package owns for message type M: float64,
// int64 or []float64. It is how an engine whose Config names no codec gets
// one — every run has a wire format — and the error any other message type
// gets until its Config names one.
func CodecFor[M any]() (Codec[M], error) {
	var c any
	switch any((*M)(nil)).(type) {
	case *float64:
		c = Float64Codec{}
	case *int64:
		c = Int64Codec{}
	case *[]float64:
		c = Float64SliceCodec{}
	default:
		return nil, fmt.Errorf("graph: no built-in codec for message type %T: name one in the engine Config", *new(M))
	}
	return c.(Codec[M]), nil
}

// FixedSize is the width n ≥ 1 every message of c encodes to, declared by an
// optional FixedSize() int method, or 0 when sizes vary (or c does not say).
// A transport prices a fixed-width batch as len(batch) × n, not per message.
func FixedSize[M any](c Codec[M]) int {
	if f, ok := c.(interface{ FixedSize() int }); ok {
		return f.FixedSize()
	}
	return 0
}

// Raw64 reports whether c declares, by an optional Raw64() bool method, that
// it encodes every message as the message's own 8 bytes read as one uint64,
// little-endian — so any 8 bytes decode — and both M and c's FixedSize are 8
// bytes wide. A body codec may then copy values with Word64 and FromWord64
// instead of calling c per message; the bytes are the same.
func Raw64[M any](c Codec[M]) bool {
	f, ok := c.(interface{ Raw64() bool })
	return ok && f.Raw64() && FixedSize(c) == 8 && unsafe.Sizeof(*new(M)) == 8
}

// Word64 is m's memory as one uint64, for a codec Raw64 declares raw.
func Word64[M any](m *M) uint64 { return *(*uint64)(unsafe.Pointer(m)) }

// FromWord64 is the M whose memory is u, Word64's inverse.
func FromWord64[M any](u uint64) M { return *(*M)(unsafe.Pointer(&u)) }

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// Uint32At reads a little-endian uint32 from the front of src.
func Uint32At(src []byte) (uint32, error) {
	if len(src) < 4 {
		return 0, ErrShortBuffer
	}
	return binary.LittleEndian.Uint32(src), nil
}

// Uint64At reads a little-endian uint64 from the front of src.
func Uint64At(src []byte) (uint64, error) {
	if len(src) < 8 {
		return 0, ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(src), nil
}

// Float64Codec encodes a float64 as its 8-byte IEEE 754 bit pattern.
type Float64Codec struct{}

func (Float64Codec) EncodedSize(float64) int { return 8 }
func (Float64Codec) FixedSize() int          { return 8 }
func (Float64Codec) Raw64() bool             { return true }

func (Float64Codec) Append(dst []byte, m float64) []byte {
	return AppendUint64(dst, math.Float64bits(m))
}

func (Float64Codec) Decode(src []byte) (float64, int, error) {
	u, err := Uint64At(src)
	if err != nil {
		return 0, 0, err
	}
	return math.Float64frombits(u), 8, nil
}

// Int64Codec encodes an int64 as 8 fixed little-endian bytes.
type Int64Codec struct{}

func (Int64Codec) EncodedSize(int64) int { return 8 }
func (Int64Codec) FixedSize() int        { return 8 }
func (Int64Codec) Raw64() bool           { return true }

func (Int64Codec) Append(dst []byte, m int64) []byte {
	return AppendUint64(dst, uint64(m))
}

func (Int64Codec) Decode(src []byte) (int64, int, error) {
	u, err := Uint64At(src)
	if err != nil {
		return 0, 0, err
	}
	return int64(u), 8, nil
}

// Float64SliceCodec encodes a []float64 as a 4-byte length prefix followed
// by the elements' bit patterns.
type Float64SliceCodec struct{}

func (Float64SliceCodec) EncodedSize(m []float64) int { return 4 + 8*len(m) }

func (Float64SliceCodec) Append(dst []byte, m []float64) []byte {
	dst = AppendUint32(dst, uint32(len(m)))
	for _, v := range m {
		dst = AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func (Float64SliceCodec) Decode(src []byte) ([]float64, int, error) {
	n, err := Uint32At(src)
	if err != nil {
		return nil, 0, err
	}
	need := 4 + 8*int(n)
	if len(src) < need {
		return nil, 0, ErrShortBuffer
	}
	var out []float64
	if n > 0 {
		out = make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[4+8*i:]))
		}
	}
	return out, need, nil
}
