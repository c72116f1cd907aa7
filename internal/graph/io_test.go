package graph

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBasic(t *testing.T) {
	input := `# a comment
0 1
0 2 2.5

1 2
`
	g, names, err := Load(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if names != nil {
		t.Errorf("dense input should not return names, got %v", names)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if w := g.OutWeights(0)[1]; w != 2.5 {
		t.Errorf("weight = %g, want 2.5", w)
	}
}

func TestLoadRemapsSparseIDs(t *testing.T) {
	g, names, err := Load(strings.NewReader("100 200\n200 300\n"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3", g.NumVertices())
	}
	if !slices.Equal(names, []int64{100, 200, 300}) {
		t.Fatalf("sparse ids must return their names, got %v", names)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Error("renamed edges missing")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"0\n",          // too few fields
		"0 1 2 3\n",    // too many fields
		"a 1\n",        // bad src
		"0 b\n",        // bad dst
		"0 1 weight\n", // bad weight
		"-1 2\n",       // negative id
	}
	for _, in := range cases {
		if _, _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q) succeeded, want error", in)
		}
	}
}

// loadCases are the inputs on which the two loaders this package used to
// have disagreed, plus the lexical corners of the format. errLine > 0 wants a
// *SyntaxError naming that line of the input; otherwise the text must load to
// exactly the listed edges, given in the file's own ids. They double as
// FuzzLoad's seed corpus.
var loadCases = []struct {
	name    string
	in      string
	n       int
	edges   []rawEdge
	errLine int
}{
	{name: "sparse ids are interned, not used as indices", in: "100 200\n200 300",
		n: 3, edges: []rawEdge{{100, 200, 1}, {200, 300, 1}}},
	{name: "ids past 32 bits are interned", in: "4294967296 1\n1 9223372036854775807\n",
		n: 3, edges: []rawEdge{{4294967296, 1, 1}, {1, 9223372036854775807, 1}}},
	{name: "dense ids out of first-appearance order are relabelled", in: "0 2\n1 2\n",
		n: 3, edges: []rawEdge{{0, 2, 1}, {1, 2, 1}}},
	{name: "CRLF, tabs, blanks, comments", in: "# c\r\n\r\n \t# indented comment\n0\t1\r\n  1   2\t0.5  \r\n",
		n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 0.5}}},
	{name: "last line without newline", in: "0 1\n1 0 2", n: 2, edges: []rawEdge{{0, 1, 1}, {1, 0, 2}}},
	{name: "weights ParseFloat accepts", in: "0 1 -2.5e-3\n1 0 +Inf\n",
		n: 2, edges: []rawEdge{{0, 1, -2.5e-3}, {1, 0, math.Inf(1)}}},
	{name: "leading zeros", in: "007 0000000000000000000000001\n", n: 2, edges: []rawEdge{{7, 1, 1}}},
	{name: "a line longer than a 1 MiB scanner buffer", in: "# " + strings.Repeat("x", 1<<20+1) + "\n3 4\n",
		n: 2, edges: []rawEdge{{3, 4, 1}}},
	{name: "empty", in: "", n: 0},
	{name: "only comments", in: "# nothing\n\n", n: 0},
	{name: "CRLF throughout", in: "0 1\r\n1 2 0.5\r\n2 0 3\r\n",
		n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 0.5}, {2, 0, 3}}},
	{name: "16 and 17 significant digits", in: "0 1 0.1234567890123456\n1 0 0.12345678901234567\n",
		n: 2, edges: []rawEdge{{0, 1, 0.1234567890123456}, {1, 0, 0.12345678901234567}}},
	{name: "mantissas around 2^53", in: "0 1 9007199254740991\n0 1 0.9007199254740991\n0 1 9007199254740992\n0 1 0.9007199254740993\n",
		n: 2, edges: []rawEdge{{0, 1, 9007199254740991}, {0, 1, 0.9007199254740991}, {0, 1, 9007199254740992}, {0, 1, 0.9007199254740993}}},
	{name: "22 and 23 fraction digits", in: "0 1 0.0000000000000000000001\n0 1 0.00000000000000000000001\n0 1 0.3000000000000000000007\n0 1 0.30000000000000000000007\n",
		n: 2, edges: []rawEdge{{0, 1, 1e-22}, {0, 1, 1e-23}, {0, 1, 0.3000000000000000000007}, {0, 1, 0.30000000000000000000007}}},
	{name: "odd weight forms", in: "0 1 1.\n0 1 .5\n0 1 1e5\n0 1 -0\n0 1 +1\n0 1 0x1p-2\n0 1 1_0\n0 1 inf\n",
		n: 2, edges: []rawEdge{{0, 1, 1}, {0, 1, 0.5}, {0, 1, 1e5}, {0, 1, math.Copysign(0, -1)}, {0, 1, 1}, {0, 1, 0.25}, {0, 1, 10}, {0, 1, math.Inf(1)}}},
	{name: "19 and 20 digits around the one-pass lexer's limit", in: "0 1 1234567890123456789\n0 1 12345678901234567890\n0 1 0.9999999999999999999\n0 1 -99999999999999999.99\n0 1 0.12345678901234567890\n",
		n: 2, edges: []rawEdge{{0, 1, 1234567890123456789}, {0, 1, 12345678901234567890}, {0, 1, 0.9999999999999999999}, {0, 1, -99999999999999999.99}, {0, 1, 0.12345678901234567890}}},
	{name: "2^53+1 is halfway: Eisel-Lemire refuses, strconv rounds to even", in: "0 1 9007199254740993\n0 1 -0.0\n0 1 +3\n",
		n: 2, edges: []rawEdge{{0, 1, 9007199254740992}, {0, 1, math.Copysign(0, -1)}, {0, 1, 3}}},
	{name: "ids just inside the dense table", in: "0 1\n2 7\n", n: 4, edges: []rawEdge{{0, 1, 1}, {2, 7, 1}}},
	{name: "ids just past the dense table", in: "0 1\n2 8\n", n: 4, edges: []rawEdge{{0, 1, 1}, {2, 8, 1}}},
	// The hot line path's exits: each line below leaves it for edge, and must
	// load as if it had not.
	{name: "18- and 19-digit ids", in: "123456789012345678 1\n1 1234567890123456789\n999999999999999999 9223372036854775807 2\n",
		n: 5, edges: []rawEdge{{123456789012345678, 1, 1}, {1, 1234567890123456789, 1}, {999999999999999999, 9223372036854775807, 2}}},
	{name: "a tab and two spaces", in: "0\t1\n1  2\n2 0\t3\n", n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 1}, {2, 0, 3}}},
	{name: "a trailing blank", in: "0 1 \n1 2 0.5 \n2 0\n", n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 0.5}, {2, 0, 1}}},
	{name: "CRLF after each form", in: "0 1\r\n1 2 0.5\r\n2 0\n", n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 0.5}, {2, 0, 1}}},
	{name: "a last plain line without newline", in: "0 1 0.5\n1 2", n: 3, edges: []rawEdge{{0, 1, 0.5}, {1, 2, 1}}},
	{name: "a weight Eisel-Lemire refuses on a plain line", in: "0 1\n1 0 9007199254740993\n1 2\n",
		n: 3, edges: []rawEdge{{0, 1, 1}, {1, 0, 9007199254740992}, {1, 2, 1}}},
	{name: "a comment between edges", in: "0 1\n# 9 9\n1 2\n", n: 3, edges: []rawEdge{{0, 1, 1}, {1, 2, 1}}},
	{name: "a signed id after plain lines", in: "0 1\n1 2\n+5 6\n", errLine: 3},
	{name: "four fields after plain lines", in: "0 1\n1 2 0.5\n5 6 7 8\n", errLine: 3},
	{name: "a signed dst", in: "0 1\n5 +6\n", errLine: 2},

	{name: "signed id", in: "0 1\n+1 2\n", errLine: 2},
	{name: "negative id", in: "# h\n\n-1 2\n", errLine: 3},
	{name: "hex id", in: "0 1\n1 2\n2 3\n0x1 2\n", errLine: 4},
	{name: "id past int64", in: "9223372036854775808 1\n", errLine: 1},
	{name: "one field", in: "0 1\n\n7\n", errLine: 3},
	{name: "four fields", in: "0 1 2 3\n", errLine: 1},
	{name: "bad weight", in: "0 1\n0 1 heavy\n", errLine: 2},
	{name: "id glued to junk", in: "0 1\n1 2x\n", errLine: 2},
	{name: "first bad line wins", in: "0 1\nbad\nworse\n", errLine: 2},
	{name: "lone point", in: "0 1 .\n", errLine: 1},
	{name: "two points", in: "0 1 1.5\n0 1 1.2.3\n", errLine: 2},
}

func TestLoadCases(t *testing.T) {
	for _, tc := range loadCases {
		t.Run(tc.name, func(t *testing.T) {
			// Every chunk count must agree, errors and their absolute line
			// numbers included.
			for k := 1; k <= 5; k++ {
				g, names, err := loadText([]byte(tc.in), k)
				if tc.errLine > 0 {
					var se *SyntaxError
					if !errors.As(err, &se) || se.Line != tc.errLine {
						t.Fatalf("k=%d: err = %v, want a SyntaxError at line %d", k, err, tc.errLine)
					}
					if want := fmt.Sprintf("line %d:", tc.errLine); !strings.Contains(err.Error(), want) {
						t.Fatalf("k=%d: %q does not name %q", k, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if g.NumVertices() != tc.n || g.NumEdges() != len(tc.edges) {
					t.Fatalf("k=%d: |V|=%d |E|=%d, want %d/%d", k, g.NumVertices(), g.NumEdges(), tc.n, len(tc.edges))
				}
				label := func(raw int64) ID {
					if names == nil {
						return ID(raw)
					}
					v := slices.Index(names, raw)
					if v < 0 {
						t.Fatalf("k=%d: id %v missing from the names %v", k, raw, names)
					}
					return ID(v)
				}
				want := NewBuilder(tc.n)
				for _, e := range tc.edges {
					want.AddWeightedEdge(label(e.src), label(e.dst), e.weight)
				}
				if !sameGraph(g, want.MustBuild()) {
					t.Fatalf("k=%d: loaded %v, want %v", k, g.Edges(), want.MustBuild().Edges())
				}
			}
		})
	}
}

// TestLoadLabelsByFirstAppearance pins the labelling policy bench/ relies on:
// vertices are numbered in order of first appearance whatever the file calls
// them, so dense ids are relabelled too unless they already appear in order,
// and the names are nil exactly when the labelling is the identity.
func TestLoadLabelsByFirstAppearance(t *testing.T) {
	g, names, err := Load(strings.NewReader("0 2\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 2, 1}; !reflect.DeepEqual(names, want) {
		t.Fatalf("names %v, want %v", names, want)
	}
	if want := []Edge{{0, 1, 1}, {2, 1, 1}}; !reflect.DeepEqual(g.Edges(), want) {
		t.Fatalf("edges %v, want %v", g.Edges(), want)
	}
	// Any relabelling of the same text loads to the same graph.
	h, _, err := Load(strings.NewReader("70 5\n31 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, h) {
		t.Fatalf("relabelled text loaded %v, want %v", h.Edges(), g.Edges())
	}
	if _, names, _ = Load(strings.NewReader("0 1\n2 1\n")); names != nil {
		t.Fatalf("ids in first-appearance order returned names %v, want nil", names)
	}
}

// randomEdgeList draws an edge list over sparse 40-bit ids with comments,
// blank lines, weights and CRLFs mixed in, and returns it with its edges.
func randomEdgeList(rng *rand.Rand) (string, [][3]int64) {
	ids := make([]int64, rng.Intn(60)+1)
	for i := range ids {
		ids[i] = rng.Int63n(1 << 40)
	}
	var sb strings.Builder
	var edges [][3]int64
	for i, m := 0, rng.Intn(400); i < m; i++ {
		switch rng.Intn(8) {
		case 0:
			sb.WriteString("# comment\n")
		case 1:
			sb.WriteString("\n")
		default:
			e := [3]int64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], 1}
			if rng.Intn(3) == 0 {
				e[2] = int64(rng.Intn(9) + 2)
				fmt.Fprintf(&sb, "%d\t%d %d\r\n", e[0], e[1], e[2])
			} else {
				fmt.Fprintf(&sb, "%d %d\n", e[0], e[1])
			}
			edges = append(edges, e)
		}
	}
	return sb.String(), edges
}

// TestLoadFileParallelMatchesSequential is the chunk-invariance property: on
// random edge lists, parsing in k = 1…16 concurrent chunks gives the same
// graph and the same names as the single sequential pass, and that graph
// is the one the edges describe.
func TestLoadFileParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		text, edges := randomEdgeList(rand.New(rand.NewSource(seed)))
		seq, seqNames, err := loadText([]byte(text), 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := NewBuilder(len(seqNames))
		for _, e := range edges {
			want.AddWeightedEdge(ID(slices.Index(seqNames, e[0])), ID(slices.Index(seqNames, e[1])), float64(e[2]))
		}
		if !reflect.DeepEqual(seq, want.MustBuild()) {
			t.Fatalf("seed %d: sequential load differs from the edges written", seed)
		}
		for k := 2; k <= 16; k++ {
			par, parNames, err := loadText([]byte(text), k)
			if err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
			if !reflect.DeepEqual(par, seq) || !reflect.DeepEqual(parNames, seqNames) {
				t.Fatalf("seed %d: %d chunks load a different graph or names than 1", seed, k)
			}
		}
	}
}

func TestLoadFileParallelBasic(t *testing.T) {
	g, _, err := loadText([]byte("# header\n0 1\n1 2 2.5\n2 0\n\n3 1\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.OutWeights(1)[0] != 2.5 {
		t.Fatal("weighted edge lost")
	}
}

func TestLoadFileParallelEmptyAndMissing(t *testing.T) {
	g, _, err := LoadFile(writeTemp(t, ""))
	if err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty file: %v %v", g, err)
	}
	if g, _, err = loadText(nil, 4); err != nil || g.NumVertices() != 0 {
		t.Fatalf("empty text in 4 chunks: %v %v", g, err)
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadFileParallelBadInput: a bad line is reported under its line number
// in the file, not in the chunk that lexed it.
func TestLoadFileParallelBadInput(t *testing.T) {
	for _, bad := range []string{"0", "a b", "0 1 x", "1 2 3 4"} {
		text := strings.Repeat("0 1\n", 9) + bad + "\n" + strings.Repeat("1 0\n", 3)
		for k := 1; k <= 6; k++ {
			_, _, err := loadText([]byte(text), k)
			var se *SyntaxError
			if !errors.As(err, &se) || se.Line != 10 {
				t.Errorf("input %q in %d chunks: err = %v, want a SyntaxError at line 10", bad, k, err)
			}
		}
	}
}

func TestLoadFileParallelMoreWorkersThanLines(t *testing.T) {
	g, _, err := loadText([]byte("0 1\n"), 16)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("tiny file: %v %v", g, err)
	}
}

// TestChunksFor: the chunk count is derived, never more than the Ps the
// process has and never a chunk under 1 MiB — so bench/'s one P, and
// every input under 1 MiB, parse on the calling goroutine.
func TestChunksFor(t *testing.T) {
	if got := chunksFor(0); got != 1 {
		t.Fatalf("chunksFor(0) = %d, want 1", got)
	}
	if got := chunksFor(1<<20 - 1); got != 1 {
		t.Fatalf("chunksFor(just under a chunk) = %d, want 1", got)
	}
	if got, max := chunksFor(1<<40), runtime.GOMAXPROCS(0); got != max {
		t.Fatalf("chunksFor(1 TiB) = %d, want GOMAXPROCS = %d", got, max)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 1}, {1, 2, 3.5}, {3, 0, 1}, {2, 2, 0.25}})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, _, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.Src, e.Dst) {
			t.Errorf("edge %d→%d lost in round trip", e.Src, e.Dst)
		}
	}
}

func TestWriteFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := mustGraph(t, 3, []Edge{{0, 1, 1}, {1, 2, 1}})
	if err := WriteFile(path, g); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	g2, _, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("LoadFile edges = %d", g2.NumEdges())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "absent.txt")); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

// FuzzLoad: whatever the bytes, Load never panics, cannot create a vertex no
// line names (|V| ≤ 2 × lines, however large the ids), and gives exactly
// referenceLoad's answer — graph, names or error — for every chunk count.
func FuzzLoad(f *testing.F) {
	for _, tc := range loadCases {
		if len(tc.in) < 1<<16 {
			f.Add([]byte(tc.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantNames, wantErr := referenceLoad(data)
		for _, k := range []int{1, 2, 3, 7} {
			g, names, err := loadText(data, k)
			if !reflect.DeepEqual(err, wantErr) || !sameGraph(g, want) || !reflect.DeepEqual(names, wantNames) {
				t.Fatalf("%d chunks: (%v, %v, %v), reference: (%v, %v, %v)", k, g, names, err, want, wantNames, wantErr)
			}
		}
		if wantErr == nil {
			if lines := bytes.Count(data, []byte{'\n'}) + 1; want.NumVertices() > 2*lines {
				t.Fatalf("%d vertices from %d lines", want.NumVertices(), lines)
			}
			if verr := want.Validate(); verr != nil {
				t.Fatal(verr)
			}
		}
	})
}

// sameGraph reports whether a and b hold the same graph, weights compared bit
// for bit: reflect.DeepEqual calls a NaN weight unequal to itself and -0 equal
// to 0.
func sameGraph(a, b *Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.n == b.n && slices.Equal(a.outIndex, b.outIndex) && slices.Equal(a.outTo, b.outTo) &&
		slices.Equal(a.inIndex, b.inIndex) && slices.Equal(a.inFrom, b.inFrom) &&
		slices.EqualFunc(a.outW, b.outW, bits) && slices.EqualFunc(a.inW, b.inW, bits)
}

// rawEdge is one lexed line: ids as the file spells them.
type rawEdge struct {
	src, dst int64
	weight   float64
}

// referenceLoad is the loader as it was before it lexed in one pass, kept as
// the oracle: the text cut line by line, each line lexed into a raw edge,
// every endpoint labelled through a map, and the labelled edges stably sorted
// by (src, dst). loadText must give exactly its graph, names and
// *SyntaxError, line and message.
func referenceLoad(data []byte) (*Graph, []int64, error) {
	var edges []rawEdge
	for line := 1; len(data) > 0; line++ {
		var rest []byte
		rest, data, _ = bytes.Cut(data, newline)
		if rest = refSkipBlanks(rest); len(rest) == 0 || rest[0] == '#' {
			continue
		}
		e, msg := refLexLine(rest)
		if msg != "" {
			return nil, nil, &SyntaxError{Line: line, Msg: msg}
		}
		edges = append(edges, e)
	}
	remap := make(map[int64]ID)
	var names []int64
	identity := true
	intern := func(raw int64) ID {
		id, ok := remap[raw]
		if !ok {
			id = ID(len(remap))
			remap[raw], names = id, append(names, raw)
			identity = identity && int64(id) == raw
		}
		return id
	}
	labelled := make([]Edge, len(edges))
	for i, e := range edges {
		labelled[i].Src = intern(e.src)
		labelled[i].Dst = intern(e.dst)
		labelled[i].Weight = e.weight
	}
	slices.SortStableFunc(labelled, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	n, m := len(remap), len(labelled)
	g := &Graph{n: n, outIndex: make([]int64, n+1), outTo: make([]ID, m), outW: make([]float64, m),
		inIndex: make([]int64, n+1), inFrom: make([]ID, m), inW: make([]float64, m)}
	for i, e := range labelled {
		g.outIndex[e.Src+1]++
		g.outTo[i], g.outW[i] = e.Dst, e.Weight
	}
	for v := 0; v < n; v++ {
		g.outIndex[v+1] += g.outIndex[v]
	}
	g.transpose(false)
	if identity {
		names = nil
	}
	return g, names, nil
}

// refLexLine reads `[0-9]+ [0-9]+ [float]`, fields separated and optionally
// followed by blanks; msg says what is wrong with any other line.
func refLexLine(b []byte) (e rawEdge, msg string) {
	var ok bool
	if e.src, b, ok = refLexID(b); !ok {
		return e, "bad src: want a decimal vertex id below 2^63"
	}
	if b = refSkipBlanks(b); len(b) == 0 {
		return e, "want 2 or 3 fields, got 1"
	}
	if e.dst, b, ok = refLexID(b); !ok {
		return e, "bad dst: want a decimal vertex id below 2^63"
	}
	e.weight = 1
	if b = refSkipBlanks(b); len(b) == 0 {
		return e, ""
	}
	end := 0
	for end < len(b) && !isBlank(b[end]) {
		end++
	}
	if len(refSkipBlanks(b[end:])) > 0 {
		return e, "want 2 or 3 fields, got 4 or more"
	}
	var err error
	if e.weight, err = strconv.ParseFloat(string(b[:end]), 64); err != nil {
		return e, fmt.Sprintf("bad weight %q", b[:end])
	}
	return e, ""
}

// refLexID reads a run of decimal digits ended by a blank or the end of the
// line.
func refLexID(b []byte) (id int64, rest []byte, ok bool) {
	const cutoff = math.MaxInt64 / 10
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := int64(b[i] - '0')
		if id > cutoff || (id == cutoff && d > math.MaxInt64%10) {
			return 0, nil, false
		}
		id = id*10 + d
	}
	if i == 0 || (i < len(b) && !isBlank(b[i])) {
		return 0, nil, false
	}
	return id, b[i:], true
}

func refSkipBlanks(b []byte) []byte {
	for len(b) > 0 && isBlank(b[0]) {
		b = b[1:]
	}
	return b
}
