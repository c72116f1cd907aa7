package graph

import (
	"bytes"
	"math/rand"
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
