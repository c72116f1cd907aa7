package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Binary format: a compact little-endian CSR dump that reloads in O(E)
// without parsing or re-sorting. Layout:
//
//	magic   [8]byte  "CYGRAPH1"
//	n       uint64   vertex count
//	m       uint64   edge count
//	outIdx  [n+1]uint64
//	outTo   [m]uint32
//	flags   uint8    bit 0: weights present
//	outW    [m]float64   (only when flags&1 != 0; all-ones graphs omit it)
//
// The in-CSR is rebuilt on load (cheaper than storing it).

var binaryMagic = [8]byte{'C', 'Y', 'G', 'R', 'A', 'P', 'H', '1'}

// WriteBinary emits the graph in the binary CSR format. A bufio.Writer's
// errors are sticky, so the final Flush reports the first failed write.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var word [8]byte
	put := func(v uint64) { bw.Write(binary.LittleEndian.AppendUint64(word[:0], v)) }
	bw.Write(binaryMagic[:])
	put(uint64(g.n))
	put(uint64(g.NumEdges()))
	for _, off := range g.outIndex {
		put(uint64(off))
	}
	for _, to := range g.outTo {
		bw.Write(binary.LittleEndian.AppendUint32(word[:0], to))
	}
	flags := byte(0) // bit 0: weights present
	if slices.ContainsFunc(g.outW, func(w float64) bool { return w != 1 }) {
		flags = 1
	}
	bw.WriteByte(flags)
	for i := 0; flags == 1 && i < len(g.outW); i++ {
		put(math.Float64bits(g.outW[i]))
	}
	return bw.Flush()
}

// ReadBinary loads a graph written by WriteBinary, streaming r. A reader that
// knows its length (bytes.Reader, bytes.Buffer, strings.Reader) has the
// header's sizes checked against it; from any other, each array grows as its
// bytes arrive. Either way a header that overstates n or m allocates no more
// than the input pays for.
func ReadBinary(r io.Reader) (*Graph, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		return readBinary(r, int64(l.Len()))
	}
	return readBinary(r, -1)
}

// readBinary streams the binary CSR format from r, size bytes long (-1 when
// unknown). It checks the out-index — from 0, monotone, to m — and the edge
// targets before the in-CSR is built on them.
func readBinary(r io.Reader, size int64) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var head [24]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("graph binary: header: %w", err)
	}
	if [8]byte(head[:]) != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", head[:8])
	}
	n64, m64 := binary.LittleEndian.Uint64(head[8:]), binary.LittleEndian.Uint64(head[16:])
	const maxReasonable = 1 << 40
	if n64 > maxReasonable || m64 > maxReasonable {
		return nil, fmt.Errorf("graph binary: implausible sizes n=%d m=%d", n64, m64)
	}
	if size >= 0 && uint64(size) < 24+8*(n64+1)+4*m64+1 {
		return nil, fmt.Errorf("graph binary: %d bytes for n=%d m=%d: %w", size, n64, m64, io.ErrUnexpectedEOF)
	}
	n, m := int(n64), int(m64)
	g := &Graph{n: n}
	var err error
	if g.outIndex, err = readWords(br, n+1, 8, size, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }); err != nil {
		return nil, fmt.Errorf("graph binary: outIndex: %w", err)
	}
	for i, off := range g.outIndex {
		if g.outIndex[0] != 0 || i > 0 && off < g.outIndex[i-1] || i == n && off != int64(m) {
			return nil, fmt.Errorf("graph binary: outIndex does not rise from 0 to m=%d (vertex %d)", m, i)
		}
	}
	if g.outTo, err = readWords(br, m, 4, size, binary.LittleEndian.Uint32); err != nil {
		return nil, fmt.Errorf("graph binary: outTo: %w", err)
	}
	for _, to := range g.outTo {
		if int(to) >= n {
			return nil, fmt.Errorf("graph binary: edge target %d out of range", to)
		}
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("graph binary: flags: %w", err)
	}
	// The targets' 4m bytes, already read, pay for the m weights at once.
	if flags&1 == 0 {
		g.outW = make([]float64, m)
		for i := range g.outW {
			g.outW[i] = 1
		}
	} else if g.outW, err = readWords(br, m, 8, 0, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }); err != nil {
		return nil, fmt.Errorf("graph binary: weights: %w", err)
	}
	g.inIndex, g.inFrom, g.inW = make([]int64, n+1), make([]ID, m), make([]float64, m)
	g.transpose(false)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph binary: %w", err)
	}
	return g, nil
}

// readWords reads count little-endian words, width bytes each, from br. With
// size ≥ 0 the input has been checked to hold them and the slice is allocated
// once; otherwise it starts small and grows with the words that arrive.
func readWords[T any](br *bufio.Reader, count, width int, size int64, word func([]byte) T) ([]T, error) {
	capacity := count
	if size < 0 {
		capacity = min(count, 1<<16)
	}
	words := make([]T, 0, capacity)
	for len(words) < count {
		b, err := br.Peek(min(width*(count-len(words)), br.Size()))
		if err != nil { // the input ends, or fails, inside the array
			return nil, fmt.Errorf("%d of %d words: %w", len(words), count, err)
		}
		for i := 0; i < len(b); i += width {
			words = append(words, word(b[i:]))
		}
		br.Discard(len(b))
	}
	return words, nil
}

// WriteBinaryFile writes the binary CSR format to a file path.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads the binary CSR format from a file path, the header's
// sizes checked against the file's length.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readBinary(f, st.Size())
}
