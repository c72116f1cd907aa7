package graph

// LexWeight exposes the loader's weight lexer to the external tests, which
// need gen's graphs (gen imports graph).
var LexWeight = lexWeight

// LabelledEdges lexes and labels text as Load does and returns what Load
// hands build: the vertex count, the labelled ends and the weights.
func LabelledEdges(text []byte) (int, []int64, []float64) {
	p := lexEdges(text)
	return len(label(p.ids, p.maxID, len(p.w))), p.ids, p.w
}

// Build is the loader's call of build.
func Build(n int, ends []int64, w []float64) (*Graph, error) { return build(n, ends, w, false, false) }
