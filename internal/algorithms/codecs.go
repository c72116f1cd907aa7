package algorithms

import "cyclops/internal/graph"

// Binary codecs for the composite message types the workloads ship over the
// wire. Like the scalar codecs in internal/graph, EncodedSize and FixedSize
// must be exact — the transports charge them to the wire books without
// materializing frames — and Append must not retain dst.

// ALSMsgCodec frames an ALSMsg as the latent vector (4B length + 8B per
// element) followed by the 8-byte edge rating.
type ALSMsgCodec struct{}

var alsVec = graph.Float64SliceCodec{}

// EncodedSize implements graph.Codec.
func (ALSMsgCodec) EncodedSize(m ALSMsg) int {
	return alsVec.EncodedSize(m.Vec) + 8
}

// Append implements graph.Codec.
func (ALSMsgCodec) Append(dst []byte, m ALSMsg) []byte {
	dst = alsVec.Append(dst, m.Vec)
	return graph.Float64Codec{}.Append(dst, m.Rating)
}

// Decode implements graph.Codec.
func (ALSMsgCodec) Decode(src []byte) (ALSMsg, int, error) {
	var m ALSMsg
	vec, n, err := alsVec.Decode(src)
	if err != nil {
		return m, 0, err
	}
	rating, rn, err := graph.Float64Codec{}.Decode(src[n:])
	if err != nil {
		return m, 0, err
	}
	m.Vec = vec
	m.Rating = rating
	return m, n + rn, nil
}

// PRValueCodec frames a PRValue as two fixed 8-byte floats (rank, share).
type PRValueCodec struct{}

// EncodedSize implements graph.Codec.
func (PRValueCodec) EncodedSize(PRValue) int { return 16 }

// FixedSize implements graph.FixedSize: every PRValue is 16 bytes.
func (PRValueCodec) FixedSize() int { return 16 }

// Append implements graph.Codec.
func (PRValueCodec) Append(dst []byte, v PRValue) []byte {
	dst = graph.Float64Codec{}.Append(dst, v.Rank)
	return graph.Float64Codec{}.Append(dst, v.Share)
}

// Decode implements graph.Codec.
func (PRValueCodec) Decode(src []byte) (PRValue, int, error) {
	var v PRValue
	rank, n, err := graph.Float64Codec{}.Decode(src)
	if err != nil {
		return v, 0, err
	}
	share, sn, err := graph.Float64Codec{}.Decode(src[n:])
	if err != nil {
		return v, 0, err
	}
	v.Rank = rank
	v.Share = share
	return v, n + sn, nil
}
