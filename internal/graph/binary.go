package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
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

// WriteBinary emits the graph in the binary CSR format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	if err := put(uint64(g.n)); err != nil {
		return err
	}
	if err := put(uint64(g.NumEdges())); err != nil {
		return err
	}
	for _, off := range g.outIndex {
		if err := put(uint64(off)); err != nil {
			return err
		}
	}
	var u32 [4]byte
	for _, to := range g.outTo {
		binary.LittleEndian.PutUint32(u32[:], to)
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
	}
	weighted := false
	for _, w := range g.outW {
		if w != 1 {
			weighted = true
			break
		}
	}
	flags := byte(0)
	if weighted {
		flags = 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if weighted {
		for _, wt := range g.outW {
			if err := put(math.Float64bits(wt)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary loads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph binary: magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph binary: bad magic %q", magic)
	}
	var u64 [8]byte
	get := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	n64, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph binary: n: %w", err)
	}
	m64, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph binary: m: %w", err)
	}
	const maxReasonable = 1 << 40
	if n64 > maxReasonable || m64 > maxReasonable {
		return nil, fmt.Errorf("graph binary: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	g := &Graph{
		n:        n,
		outIndex: make([]int64, n+1),
		outTo:    make([]ID, m),
		outW:     make([]float64, m),
		inIndex:  make([]int64, n+1),
		inFrom:   make([]ID, m),
		inW:      make([]float64, m),
	}
	for i := range g.outIndex {
		v, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph binary: outIndex: %w", err)
		}
		g.outIndex[i] = int64(v)
	}
	var u32 [4]byte
	for i := range g.outTo {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, fmt.Errorf("graph binary: outTo: %w", err)
		}
		g.outTo[i] = binary.LittleEndian.Uint32(u32[:])
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("graph binary: flags: %w", err)
	}
	if flags&1 != 0 {
		for i := range g.outW {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("graph binary: weights: %w", err)
			}
			g.outW[i] = math.Float64frombits(v)
		}
	} else {
		for i := range g.outW {
			g.outW[i] = 1
		}
	}

	for _, to := range g.outTo {
		if int(to) >= n {
			return nil, fmt.Errorf("graph binary: edge target %d out of range", to)
		}
	}
	g.transpose()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph binary: %w", err)
	}
	return g, nil
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

// ReadBinaryFile loads the binary CSR format from a file path.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
