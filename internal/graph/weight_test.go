package graph_test

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"cyclops/internal/gen"
	"cyclops/internal/graph"
)

// weightPaths is how a set of weight tokens split over the loader's three
// conversions: Clinger's exact division, Eisel–Lemire, and strconv.
type weightPaths struct{ clinger, eiselLemire, strconv int }

// check lexes tok as the loader does and fails t unless the token is read
// whole and an exact result is bit for bit strconv.ParseFloat's; it books
// the path tok took.
func (p *weightPaths) check(t *testing.T, tok string) {
	t.Helper()
	w, end, exact := graph.LexWeight([]byte(tok), 0)
	if end != len(tok) {
		t.Fatalf("%q: lexed %d of %d bytes", tok, end, len(tok))
	}
	if !exact {
		p.strconv++
		return
	}
	want, err := strconv.ParseFloat(tok, 64)
	if err != nil || math.Float64bits(w) != math.Float64bits(want) {
		t.Fatalf("%q: lexWeight = %v (%#x), strconv = %v (%#x), %v", tok, w, math.Float64bits(w), want, math.Float64bits(want), err)
	}
	// The path follows from the digits read as an integer: below 2⁵³ the
	// division, else Eisel–Lemire.
	if m, _ := strconv.ParseUint(strings.Trim(strings.Replace(tok, ".", "", 1), "+-"), 10, 64); m < 1<<53 {
		p.clinger++
	} else {
		p.eiselLemire++
	}
}

// TestParseWeightMatchesStrconv: every weight the loader converts without
// strconv equals strconv.ParseFloat's bit for bit, over a deterministic 1.2 M
// tokens — %g, %f with 0–18 places and %e of random magnitudes, 16- to
// 20-digit mantissas with the point anywhere, both signs — and every weight
// of the lattice bench/ loads takes an exact path, none strconv.
func TestParseWeightMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all weightPaths
	for range 200_000 {
		x := math.Exp(rng.NormFloat64() * 12)
		if rng.Intn(2) == 0 {
			x = -x
		}
		all.check(t, strconv.FormatFloat(x, 'g', -1, 64))
		all.check(t, strconv.FormatFloat(x, 'f', rng.Intn(19), 64))
		all.check(t, strconv.FormatFloat(x, 'e', -1, 64))

		digits := []byte("+")
		if rng.Intn(2) == 0 {
			digits[0] = '-'
		}
		for range 16 + rng.Intn(5) {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		all.check(t, string(digits))
		at := 1 + rng.Intn(len(digits)) // the point goes before digits[at], or last
		digits = append(digits[:at:at], append([]byte{'.'}, digits[at:]...)...)
		all.check(t, string(digits))
		all.check(t, string(digits[1:]))
	}
	t.Logf("random tokens: %+v", all)
	if all.clinger == 0 || all.eiselLemire < 100_000 || all.strconv == 0 {
		t.Fatalf("paths %+v: each must be exercised", all)
	}
	if _, _, exact := graph.LexWeight([]byte("9007199254740993"), 0); exact {
		t.Fatal("2⁵³+1 is exactly halfway: Eisel–Lemire must refuse it to strconv")
	}

	var lattice weightPaths
	g := gen.Road(64, 512, 0, 1)
	for v := range g.NumVertices() {
		for _, w := range g.OutWeights(graph.ID(v)) {
			lattice.check(t, strconv.FormatFloat(w, 'g', -1, 64))
		}
	}
	t.Logf("lattice weights: %+v", lattice)
	if lattice.strconv != 0 {
		t.Fatalf("lattice paths %+v: no lattice weight may reach strconv", lattice)
	}
}
