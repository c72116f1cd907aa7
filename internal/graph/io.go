package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/bits"
	"os"
	"runtime"
	"slices"
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
// the loaded graph does not depend on how the file labels its vertices.
// names[v] is vertex v's id in the file; names is nil when that numbering is
// the identity, i.e. every id already equals its first-appearance rank.
func Load(r io.Reader) (g *Graph, names []int64, err error) {
	// io.Copy lets a reader that holds its bytes (bytes.Reader, bytes.Buffer,
	// strings.Reader) hand them over in one write: one allocation, no growth.
	var text bytes.Buffer
	if _, err := io.Copy(&text, r); err != nil {
		return nil, nil, fmt.Errorf("graph load: %w", err)
	}
	return loadText(text.Bytes(), chunksFor(text.Len()))
}

// LoadFile reads an edge-list graph from a file path.
func LoadFile(path string) (g *Graph, names []int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return loadText(data, chunksFor(len(data)))
}

var newline = []byte{'\n'}

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
func loadText(data []byte, k int) (*Graph, []int64, error) {
	// Each cut moves forward to the byte after the next '\n', so every line
	// belongs to exactly one chunk.
	cuts := make([]int, k+1)
	cuts[k] = len(data)
	for c := 1; c < k; c++ {
		_, rest, _ := bytes.Cut(data[max(len(data)/k*c, cuts[c-1]):], newline)
		cuts[c] = len(data) - len(rest)
	}
	parts := make([]lexed, k)
	lex := func(c int) { parts[c] = lexEdges(data[cuts[c]:cuts[c+1]]) }
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
	maxID, idss, ws := int64(-1), make([][]int64, k), make([][]float64, k)
	for c, p := range parts {
		if p.err != nil {
			// The first failing chunk holds the file's first bad line.
			p.err.Line += bytes.Count(data[:cuts[c]], newline)
			return nil, nil, p.err
		}
		maxID, idss[c], ws[c] = max(maxID, p.maxID), p.ids, p.w
	}
	ids, w := parts[0].ids, parts[0].w
	if k > 1 { // each allocated once, at the total size
		ids, w = slices.Concat(idss...), slices.Concat(ws...)
	}

	names := label(ids, maxID, len(w))
	if uint64(len(names)) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("graph load: %d distinct vertex ids exceed the 32-bit vertex space", len(names))
	}
	g, err := build(len(names), ids, w, false, false)
	if err != nil {
		return nil, nil, err
	}
	// Distinct, ascending and ending at n-1, the ids are 0…n-1: the identity.
	if slices.IsSorted(names) && (len(names) == 0 || names[len(names)-1] == int64(len(names)-1)) {
		return g, nil, nil
	}
	return g, names, nil
}

// label renames the ids in place, in file order, by first appearance and
// returns each vertex's id, by label. A table costs 4 B per id up to the
// largest, the ids 16 B per edge: it is used while no larger than they are
// (maxID+1 ≤ 4 per edge), a map for sparser ids.
func label(ids []int64, maxID int64, m int) (names []int64) {
	if m < math.MaxUint32/2 && maxID < 4*int64(m) {
		rank := make([]ID, maxID+1) // 1 + the vertex an id names; 0 until it appears
		for j, raw := range ids {
			l := rank[raw]
			if l == 0 {
				names = append(names, raw)
				l = ID(len(names))
				rank[raw] = l
			}
			ids[j] = int64(l - 1)
		}
		return names
	}
	rank := make(map[int64]ID)
	for j, raw := range ids {
		l, ok := rank[raw]
		if !ok {
			l = ID(len(names))
			rank[raw], names = l, append(names, raw)
		}
		ids[j] = int64(l)
	}
	return names
}

// lexed is one chunk of text, lexed: its edges' ids as the file spells them
// (src, dst, src, dst, …), their weights and the largest id, or the chunk's
// first malformed line.
type lexed struct {
	ids   []int64
	w     []float64
	maxID int64
	err   *SyntaxError
}

// lexEdges lexes text in one pass over its bytes. Every line that is neither
// blank nor a '#' comment must read `[0-9]+ [0-9]+ [weight]`, fields
// separated and optionally followed by blanks; lexing stops at the first line
// that does not, numbered from the start of text.
//
// The common line, `digits ' ' digits` then '\n' or ' ' weight '\n' with ids
// of at most 18 digits (no overflow), is lexed inline. Any other line goes to
// edge from its first byte, so the grammar and its errors have one definition.
func lexEdges(text []byte) lexed {
	lines := bytes.Count(text, newline) + 1
	ids, w, maxID := make([]int64, 0, 2*lines), make([]float64, 0, lines), int64(-1)
	for i, line := 0, 1; i < len(text); {
		if text[i]-'0' < 10 {
			src, j := int64(0), i
			for ; j < len(text) && text[j]-'0' < 10; j++ {
				src = src*10 + int64(text[j]-'0')
			}
			if j-i <= 18 && j+1 < len(text) && text[j] == ' ' {
				dst, k := int64(0), j+1
				for ; k < len(text) && text[k]-'0' < 10; k++ {
					dst = dst*10 + int64(text[k]-'0')
				}
				if k-j-1 <= 18 && k > j+1 && k < len(text) {
					wt, end, ok := 1.0, k, text[k] == '\n'
					if text[k] == ' ' && k+1 < len(text) {
						wt, end, ok = lexWeight(text, k+1)
						ok = ok && end < len(text) && text[end] == '\n'
					}
					if ok {
						ids, w, maxID = append(ids, src, dst), append(w, wt), max(maxID, src, dst)
						i, line = end+1, line+1
						continue
					}
				}
			}
		}
		switch c := text[i]; {
		case c == '\n':
			line++
			i++
		case isBlank(c):
			i++
		case c == '#':
			if j := bytes.IndexByte(text[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(text)
			}
		default:
			src, dst, wt, end, msg := edge(text, i)
			if msg != "" {
				return lexed{err: &SyntaxError{Line: line, Msg: msg}}
			}
			ids, w, maxID, i = append(ids, src, dst), append(w, wt), max(maxID, src, dst), end
		}
	}
	return lexed{ids: ids, w: w, maxID: maxID}
}

// edge lexes the line that starts at text[i] and returns its edge and where
// it ends, or what is wrong with it.
func edge(text []byte, i int) (src, dst int64, w float64, end int, msg string) {
	src, i, ok := lexID(text, i)
	if !ok {
		return 0, 0, 0, i, "bad src: want a decimal vertex id below 2^63"
	}
	if i = skipBlanks(text, i); i == len(text) || text[i] == '\n' {
		return 0, 0, 0, i, "want 2 or 3 fields, got 1"
	}
	dst, i, ok = lexID(text, i)
	if !ok {
		return 0, 0, 0, i, "bad dst: want a decimal vertex id below 2^63"
	}
	w = 1.0
	if i = skipBlanks(text, i); i < len(text) && text[i] != '\n' {
		tok := i
		w, i, ok = lexWeight(text, i)
		weight := text[tok:i]
		if i = skipBlanks(text, i); i < len(text) && text[i] != '\n' {
			return 0, 0, 0, i, "want 2 or 3 fields, got 4 or more"
		}
		if !ok { // not a plain decimal, or a halfway case: strconv decides
			var err error
			if w, err = strconv.ParseFloat(string(weight), 64); err != nil {
				return 0, 0, 0, i, fmt.Sprintf("bad weight %q", weight)
			}
		}
	}
	return src, dst, w, i, ""
}

// lexID reads the run of decimal digits at text[i], which a blank or the end
// of the line must end.
func lexID(text []byte, i int) (id int64, end int, ok bool) {
	start := i
	for ; i < len(text) && text[i]-'0' < 10; i++ {
		id = id*10 + int64(text[i]-'0')
	}
	ok = i > start && (i == len(text) || text[i] == '\n' || isBlank(text[i]))
	if ok && i-start > 18 { // 19 digits can overflow: strconv checks them
		id, err := strconv.ParseInt(string(text[start:i]), 10, 64)
		return id, i, err == nil
	}
	return id, i, ok
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' }

func skipBlanks(text []byte, i int) int {
	for i < len(text) && isBlank(text[i]) {
		i++
	}
	return i
}

// lexWeight reads the weight token at text[i] in one pass and returns where
// it ends. A plain decimal `[+-]digits[.digits]` of at most 19 digits, read as
// m × 10^-k, comes back exact, bit for bit strconv.ParseFloat's value: below
// 2⁵³ by Clinger's exact division, above by Eisel–Lemire (DESIGN.md §3). Any
// other token, or a halfway case Eisel–Lemire refuses, comes back with exact
// false, for the caller to hand to strconv whole.
func lexWeight(text []byte, i int) (w float64, end int, exact bool) {
	neg := text[i] == '-'
	if neg || text[i] == '+' {
		i++
	}
	m, digits, point := uint64(0), 0, math.MaxInt // point: digits before the '.'
	for ; i < len(text); i++ {
		if d := text[i] - '0'; d < 10 && digits < 19 {
			m, digits = m*10+uint64(d), digits+1
		} else if text[i] == '.' && point == math.MaxInt {
			point = digits
		} else {
			break
		}
	}
	if digits > 0 && (i == len(text) || text[i] == '\n' || isBlank(text[i])) {
		k := max(digits-point, 0)
		if m < 1<<53 {
			w, exact = float64(m)/math.Pow10(k), true
		} else {
			w, exact = eiselLemire64(m, k)
		}
		if neg {
			w = -w
		}
		if exact {
			return w, i, true
		}
	}
	for i < len(text) && text[i] != '\n' && !isBlank(text[i]) {
		i++
	}
	return 0, i, false
}

// tenToMinus[k] is 10^-k as a 128-bit mantissa {hi, lo}, top bit set,
// rounded down: the rows of strconv's detailedPowersOfTen for 10^0…10^-19,
// derived here rather than copied.
var tenToMinus = func() (t [20][2]uint64) {
	var b [16]byte
	for k := range t {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		q := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
		q.Quo(q, p)
		q.Rsh(q, uint(q.BitLen()-128)).FillBytes(b[:]) // k = 0 gives 2^128: halve it
		t[k] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return t
}()

// eiselLemire64 returns m × 10^-k correctly rounded, for 2⁵³ ≤ m < 2⁶⁴ and
// k ≤ 19, or ok false where the 128-bit product cannot decide the rounding.
// It is Go's strconv.eiselLemire64 (src/strconv/eisel_lemire.go, Copyright
// 2020 The Go Authors, BSD-style licence) cut to that domain: m is never zero
// and the result, between 2⁵³·10⁻¹⁹ and 2⁶⁴, is never subnormal or infinite.
func eiselLemire64(m uint64, k int) (f float64, ok bool) {
	pow := &tenToMinus[k]
	clz := bits.LeadingZeros64(m)
	m <<= uint(clz)
	exp2 := uint64(217706*-k>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(m, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+m < m { // the low half of 10^-k may carry
		yHi, yLo := bits.Mul64(m, pow[1])
		lo, carry := bits.Add64(xLo, yHi, 0)
		hi := xHi + carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && yLo+m < m {
			return 0, false
		}
		xHi, xLo = hi, lo
	}
	msb := xHi >> 63
	mant := xHi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 { // looks halfway, and rounding up would make it odd
		return 0, false
	}
	mant = (mant + mant&1) >> 1 // to nearest in 53 bits
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
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
