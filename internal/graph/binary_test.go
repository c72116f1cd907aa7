package graph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{0, 1, 1}, {1, 2, 3.5}, {4, 0, 1}, {2, 2, 0.25}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 5 || g2.NumEdges() != 4 {
		t.Fatalf("|V|=%d |E|=%d", g2.NumVertices(), g2.NumEdges())
	}
	for v := 0; v < 5; v++ {
		a, b := g.InNeighbors(ID(v)), g2.InNeighbors(ID(v))
		if len(a) != len(b) {
			t.Fatalf("in-degree of %d differs", v)
		}
	}
	if g2.OutWeights(1)[0] != 3.5 {
		t.Fatal("weight lost")
	}
}

func TestBinaryUnweightedOmitsWeights(t *testing.T) {
	weighted := mustGraph(t, 3, []Edge{{0, 1, 2}, {1, 2, 1}})
	unweighted := mustGraph(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}})
	var wb, ub bytes.Buffer
	if err := WriteBinary(&wb, weighted); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&ub, unweighted); err != nil {
		t.Fatal(err)
	}
	if ub.Len() >= wb.Len() {
		t.Fatalf("unweighted encoding (%d bytes) should be smaller than weighted (%d)", ub.Len(), wb.Len())
	}
	g, err := ReadBinary(&ub)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutWeights(0)[0] != 1 {
		t.Fatal("unweighted reload must restore weight 1")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOTMAGIC"),
		append(append([]byte{}, binaryMagic[:]...), 1, 2, 3), // truncated header
	}
	for _, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("corrupt input %q accepted", c)
		}
	}
	// Implausible sizes.
	var buf bytes.Buffer
	buf.Write(binaryMagic[:])
	huge := make([]byte, 16)
	for i := range huge {
		huge[i] = 0xff
	}
	buf.Write(huge)
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("implausible sizes accepted")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := mustGraph(t, 4, []Edge{{0, 1, 1}, {2, 3, 7}})
	if err := WriteBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 || g2.OutWeights(2)[0] != 7 {
		t.Fatal("file round trip lost data")
	}
	if _, err := ReadBinaryFile(filepath.Join(dir, "absent.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

// Property: text → binary → text preserves the exact edge multiset.
func TestBinaryPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		b := NewBuilder(n)
		m := rng.Intn(150)
		for i := 0; i < m; i++ {
			b.AddWeightedEdge(ID(rng.Intn(n)), ID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if WriteBinary(&buf, g) != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil || g2.Validate() != nil {
			return false
		}
		a, bb := g.Edges(), g2.Edges()
		if len(a) != len(bb) {
			return false
		}
		for i := range a {
			if a[i] != bb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// binaryOf encodes n, m and outIndex as a .bin header and index, followed by
// m zero edge targets and an unweighted flags byte.
func binaryOf(n, m uint64, outIndex ...uint64) []byte {
	b := append([]byte{}, binaryMagic[:]...)
	for _, v := range append([]uint64{n, m}, outIndex...) {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, make([]byte, 4*m+1)...)
}

// TestReadBinaryRejectsBadIndex: an out-index that does not run from 0 to m
// without falling is an error, not an index-out-of-range panic in transpose.
func TestReadBinaryRejectsBadIndex(t *testing.T) {
	for name, data := range map[string][]byte{
		"overruns m":    binaryOf(2, 1, 0, 5, 5),
		"not monotone":  binaryOf(3, 2, 0, 2, 1, 2),
		"starts past 0": binaryOf(2, 1, 1, 1, 1),
		"ends short":    binaryOf(2, 2, 0, 1, 1),
	} {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadBinary(bytes.NewReader(binaryOf(2, 1, 0, 1, 1))); err != nil {
		t.Errorf("a well-formed index: %v", err)
	}
}

// stream hides a reader's length, so ReadBinary cannot check the header's
// sizes against it up front.
type stream struct{ io.Reader }

// TestReadBinaryOverstatedSizes: a header that claims 2^40 vertices over a few
// bytes is an error on every path — checked against the length of an
// in-memory reader or a file, and found out by the bounded growth of a
// stream's arrays — not a terabyte allocation.
func TestReadBinaryOverstatedSizes(t *testing.T) {
	data := binaryOf(1<<40, 0, 0, 0)
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("in-memory reader: accepted")
	}
	if _, err := ReadBinary(stream{bytes.NewReader(data)}); err == nil {
		t.Error("stream: accepted")
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryFile(path); err == nil {
		t.Error("file: accepted")
	}
}

// TestReadBinaryStream: a stream longer than the reader's buffer decodes to
// the graph the in-memory path gives, and a truncated one is an error.
func TestReadBinaryStream(t *testing.T) {
	b := NewBuilder(1 << 12)
	rng := rand.New(rand.NewSource(1))
	for range 1 << 17 {
		b.AddWeightedEdge(ID(rng.Intn(1<<12)), ID(rng.Intn(1<<12)), rng.Float64())
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	want, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReadBinary(stream{bytes.NewReader(buf.Bytes())}); err != nil || !sameGraph(got, want) {
		t.Fatalf("stream decodes differently: %v", err)
	}
	if _, err := ReadBinary(stream{bytes.NewReader(buf.Bytes()[:buf.Len()-1])}); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// FuzzReadBinary: whatever the bytes, ReadBinary returns a graph that
// validates and writes back to a file that reads back to it, or an error —
// never a panic, and never an allocation the input's size does not pay for.
// A stream of the same bytes, read without knowing its length, agrees.
func FuzzReadBinary(f *testing.F) {
	g, err := FromEdges(4, []Edge{{0, 1, 2.5}, {1, 2, 1}, {3, 0, -1}, {2, 2, 0.25}})
	var real bytes.Buffer
	if err == nil {
		err = WriteBinary(&real, g)
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add(binaryOf(2, 1, 0, 5, 5))
	f.Add(real.Bytes()[:real.Len()-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if h, serr := ReadBinary(stream{bytes.NewReader(data)}); (err == nil) != (serr == nil) || err == nil && !sameGraph(g, h) {
			t.Fatalf("in-memory: %v, stream: %v", err, serr)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := WriteBinary(&again, g); err != nil {
			t.Fatal(err)
		}
		if h, err := ReadBinary(&again); err != nil || !sameGraph(g, h) {
			t.Fatalf("round trip: %v", err)
		}
	})
}
