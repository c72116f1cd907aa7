package algorithms

// The workload codecs against graph.Codec's contract (codectest.Check): a
// fixed sample set under `go test`, and the same check on every fuzzed value
// in the CI fuzz job. Seed corpora live under testdata/fuzz/<target>.

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"cyclops/internal/graph"
	"cyclops/internal/graph/codectest"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameALSMsg(a, b ALSMsg) bool {
	return slices.EqualFunc(a.Vec, b.Vec, sameBits) && sameBits(a.Rating, b.Rating)
}

func samePRValue(a, b PRValue) bool {
	return sameBits(a.Rank, b.Rank) && sameBits(a.Share, b.Share)
}

func TestCodecContract(t *testing.T) {
	negZero := math.Copysign(0, -1)
	codectest.Check(t, PRValueCodec{}, samePRValue,
		PRValue{}, PRValue{Rank: 0.15, Share: 0.85}, PRValue{Rank: math.NaN(), Share: negZero},
		PRValue{Rank: math.Inf(1), Share: math.Inf(-1)}, PRValue{Rank: math.SmallestNonzeroFloat64, Share: math.MaxFloat64})

	long := make([]float64, 1000)
	for i := range long {
		long[i] = 1 / float64(i+1)
	}
	codectest.Check(t, ALSMsgCodec{}, sameALSMsg,
		ALSMsg{}, ALSMsg{Vec: []float64{}, Rating: 3.5}, ALSMsg{Vec: []float64{1.5}, Rating: negZero},
		ALSMsg{Vec: []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero}, Rating: math.NaN()},
		ALSMsg{Vec: long, Rating: 5})

	// The triangle tests' own codec ships real adjacency lists, so it owes
	// the same contract.
	ids := make([]graph.ID, 1000)
	for i := range ids {
		ids[i] = graph.ID(i * 4_294_967)
	}
	codectest.Check(t, idListCodec{}, func(a, b []graph.ID) bool { return slices.Equal(a, b) },
		nil, []graph.ID{}, []graph.ID{0}, []graph.ID{math.MaxUint32, 0, 7}, ids)
}

func FuzzALSMsgCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, 3.5)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x3F}, -1.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, math.NaN()) // 7 bytes: a truncated element is dropped
	f.Fuzz(func(t *testing.T, vecBytes []byte, rating float64) {
		var vec []float64
		if n := len(vecBytes) / 8; n > 0 {
			vec = make([]float64, n)
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(vecBytes[8*i:]))
			}
		}
		codectest.Check(t, ALSMsgCodec{}, sameALSMsg, ALSMsg{Vec: vec, Rating: rating})
	})
}

func FuzzPRValueCodecRoundTrip(f *testing.F) {
	f.Add(0.15, 0.85)
	f.Add(math.Inf(1), math.Inf(-1))
	f.Add(math.NaN(), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, rank, share float64) {
		codectest.Check(t, PRValueCodec{}, samePRValue, PRValue{Rank: rank, Share: share})
	})
}
