package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
)

// The text format is the SNAP-style edge list the paper's datasets ship in:
// one "src dst" or "src dst weight" triple per line, '#' comments, blank
// lines ignored. Vertex ids are decimal, below 2⁶³, and need not be dense:
// the loader names vertices in order of first appearance.

// SyntaxError reports the first malformed line of an edge list.
type SyntaxError struct {
	Line int // 1-based, counted from the start of the input
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("graph load: line %d: %s", e.Line, e.Msg)
}

// Load reads an edge-list graph from r. Vertices are numbered 0..n-1 in the
// order their ids first appear in the text (src before dst on a line), so
// the loaded graph does not depend on how the file labels its vertices. The
// returned mapping takes a file id to its vertex; it is nil when that
// numbering is the identity, i.e. every id already equals its
// first-appearance rank.
func Load(r io.Reader) (*Graph, map[int64]ID, error) {
	// io.Copy lets a reader that holds its bytes (bytes.Reader, bytes.Buffer,
	// strings.Reader) hand them over in one write: one allocation, no growth.
	var text bytes.Buffer
	if _, err := io.Copy(&text, r); err != nil {
		return nil, nil, fmt.Errorf("graph load: %w", err)
	}
	return loadText(text.Bytes(), chunksFor(text.Len()))
}

// LoadFile reads an edge-list graph from a file path.
func LoadFile(path string) (*Graph, map[int64]ID, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return loadText(data, chunksFor(len(data)))
}

var newline = []byte{'\n'}

// rawEdge is one lexed line: ids as the file spells them.
type rawEdge struct {
	src, dst int64
	weight   float64
}

// chunksFor sizes the paper's parallel ingress (§6.7: "splits the file into
// multiple blocks") from what the process has: one chunk per P, none under
// chunkBytes — the least text worth a parser goroutine of its own.
func chunksFor(size int) int {
	const chunkBytes = 1 << 20
	return min(runtime.GOMAXPROCS(0), size/chunkBytes+1)
}

// loadText lexes data in k line-aligned chunks (concurrently when k > 1),
// then labels the edges in file order and builds the graph. The result does
// not depend on k.
func loadText(data []byte, k int) (*Graph, map[int64]ID, error) {
	// Each cut moves forward to the byte after the next '\n', so every line
	// belongs to exactly one chunk.
	cuts := make([]int, k+1)
	cuts[k] = len(data)
	for c := 1; c < k; c++ {
		_, rest, _ := bytes.Cut(data[max(len(data)/k*c, cuts[c-1]):], newline)
		cuts[c] = len(data) - len(rest)
	}
	parts := make([][]rawEdge, k)
	errs := make([]*SyntaxError, k)
	lex := func(c int) { parts[c], errs[c] = lexEdges(data[cuts[c]:cuts[c+1]]) }
	var wg sync.WaitGroup
	for c := 0; c < k-1; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lex(c)
		}()
	}
	lex(k - 1) // the last chunk — with one chunk, the only one — needs no goroutine
	wg.Wait()
	total := 0
	for c, err := range errs {
		if err != nil {
			// The first failing chunk holds the file's first bad line.
			err.Line += bytes.Count(data[:cuts[c]], newline)
			return nil, nil, err
		}
		total += len(parts[c])
	}

	// One labelling pass, in file order: first appearance names the vertex.
	remap := make(map[int64]ID)
	identity := true
	intern := func(raw int64) ID {
		id, ok := remap[raw]
		if !ok {
			id = ID(len(remap))
			remap[raw] = id
			identity = identity && int64(id) == raw
		}
		return id
	}
	edges := make([]Edge, 0, total)
	for _, part := range parts {
		for _, e := range part {
			edges = append(edges, Edge{Src: intern(e.src), Dst: intern(e.dst), Weight: e.weight})
		}
	}
	if uint64(len(remap)) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("graph load: %d distinct vertex ids exceed the 32-bit vertex space", len(remap))
	}
	g, err := (&Builder{n: len(remap), edges: edges}).Build()
	if err != nil {
		return nil, nil, err
	}
	if identity {
		remap = nil
	}
	return g, remap, nil
}

// lexEdges turns edge-list text into raw edges, one per line that is neither
// blank nor a '#' comment. It stops at the first malformed line, numbered
// from the start of text.
func lexEdges(text []byte) ([]rawEdge, *SyntaxError) {
	edges := make([]rawEdge, 0, bytes.Count(text, newline)+1)
	for line := 1; len(text) > 0; line++ {
		var rest []byte
		rest, text, _ = bytes.Cut(text, newline)
		if rest = skipBlanks(rest); len(rest) == 0 || rest[0] == '#' {
			continue
		}
		e, msg := lexLine(rest)
		if msg != "" {
			return nil, &SyntaxError{Line: line, Msg: msg}
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// lexLine reads `[0-9]+ [0-9]+ [float]`, fields separated and optionally
// followed by blanks; msg says what is wrong with any other line.
func lexLine(b []byte) (e rawEdge, msg string) {
	var ok bool
	if e.src, b, ok = lexID(b); !ok {
		return e, "bad src: want a decimal vertex id below 2^63"
	}
	if b = skipBlanks(b); len(b) == 0 {
		return e, "want 2 or 3 fields, got 1"
	}
	if e.dst, b, ok = lexID(b); !ok {
		return e, "bad dst: want a decimal vertex id below 2^63"
	}
	e.weight = 1
	if b = skipBlanks(b); len(b) == 0 {
		return e, ""
	}
	end := 0
	for end < len(b) && !isBlank(b[end]) {
		end++
	}
	if len(skipBlanks(b[end:])) > 0 {
		return e, "want 2 or 3 fields, got 4 or more"
	}
	var err error
	if e.weight, err = strconv.ParseFloat(string(b[:end]), 64); err != nil {
		return e, fmt.Sprintf("bad weight %q", b[:end])
	}
	return e, ""
}

// lexID reads a run of decimal digits ended by a blank or the end of the
// line.
func lexID(b []byte) (id int64, rest []byte, ok bool) {
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

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' }

func skipBlanks(b []byte) []byte {
	for len(b) > 0 && isBlank(b[0]) {
		b = b[1:]
	}
	return b
}

// Write emits the graph in the text edge-list format read by Load. Weights
// equal to 1 are omitted so unweighted graphs round-trip to 2-field lines.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.OutNeighbors(ID(v))
		ws := g.OutWeights(ID(v))
		for i, u := range ns {
			if ws[i] == 1 {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			} else {
				fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes the graph to a file path in the text edge-list format.
func WriteFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
