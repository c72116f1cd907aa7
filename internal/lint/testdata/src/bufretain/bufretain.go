// Package bufretain exercises the bufretain analyzer: round-owned slices —
// a Codec.Append implementation's dst, a Codec.Decode implementation's src,
// transport.Drain's (and superstep.Drain's) batches, and decodeFrameBody's
// scratch-decoded batch — must not flow into memory that outlives the round.
package bufretain

import (
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

type Msg struct{ Vec []float64 }

// leakCodec retains the arena buffer: true positives.
type leakCodec struct{}

var stash []byte

var frames = map[int][]byte{}

func (leakCodec) EncodedSize(m Msg) int { return 4 }

func (leakCodec) Append(dst []byte, m Msg) []byte {
	stash = dst // want `stored into package-level stash`
	return dst
}

func (leakCodec) Decode(src []byte) (Msg, int, error) {
	frames[0] = src[:4] // want `stored into map frames\[0\]`
	return Msg{}, 4, nil
}

// okCodec copies what it must keep: the analyzer stays silent.
type okCodec struct{}

func (okCodec) EncodedSize(m Msg) int { return 4 }

func (okCodec) Append(dst []byte, m Msg) []byte {
	return append(dst, 1, 2, 3, 4)
}

func (okCodec) Decode(src []byte) (Msg, int, error) {
	keep := append([]byte(nil), src[:4]...) // the copy idiom: legal
	_ = keep
	return Msg{}, 4, nil
}

type inbox struct {
	held  [][]float64
	holdC chan []float64
}

func sink([][]float64) {}

// hoard stores round batches into a field via append: true positive.
func (in *inbox) hoard(tr transport.Interface[float64], w int) {
	batches := tr.Drain(w)
	for _, b := range batches {
		in.held = append(in.held, b) // want `stored into field in\.held`
	}
}

// ship sends a round batch on a channel: true positive.
func (in *inbox) ship(tr transport.Interface[float64], w int) {
	for _, b := range tr.Drain(w) {
		in.holdC <- b // want `sent on a channel`
	}
}

// handoff passes round batches to an unjoined goroutine: true positive.
func handoff(tr transport.Interface[float64], w int) {
	batches := tr.Drain(w)
	go sink(batches) // want `passed to a goroutine`
}

var deferred []func()

// capture closes over round batches: true positive.
func capture(tr transport.Interface[float64], w int) {
	batches := tr.Drain(w)
	deferred = append(deferred, func() {
		sink(batches) // want `captured by a closure`
	})
}

// drainAll stores Drain results through a container captured by a
// goroutine (the gas fan-out shape): true positive.
func drainAll(tr transport.Interface[float64], n int) [][][]float64 {
	dst := make([][][]float64, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			dst[w] = tr.Drain(w) // want `stored through captured container dst\[w\]`
		}(w)
	}
	return dst
}

// drainBooked stores the batches of the kernel's booking drain into a
// field, as drainAll does through a container: true positive.
func (in *inbox) drainBooked(k *superstep.Kernel, tr transport.Interface[float64], w int) {
	in.held = superstep.Drain(k, tr, w) // want `stored into field in\.held`
}

// consume folds batches inside the round and keeps only scalar copies: the
// analyzer stays silent.
func consume(tr transport.Interface[float64], w int) float64 {
	var sum float64
	for _, b := range tr.Drain(w) {
		for _, v := range b {
			sum += v
		}
	}
	return sum
}

type snapshot struct{ kept [][]float64 }

// capture2 persists batches with the element-copy idiom: legal, no finding.
func (s *snapshot) capture2(tr transport.Interface[float64], w int) {
	for _, b := range tr.Drain(w) {
		s.kept = append(s.kept, append([]float64(nil), b...))
	}
}

// decodeFrameBody mirrors the real transport helper's shape (the lint
// tests compare the two): the analyzer matches it by name, and only calls
// lending a non-nil scratch — the last argument — taint the returned batch.
func decodeFrameBody(body []byte, to int, codec int, scratch []float64) (int, bool, []float64, error) {
	return 0, false, scratch[:0], nil
}

type receiver struct{ last []float64 }

// scratchDecode stores a scratch-decoded batch into a field: true positive.
func (r *receiver) scratchDecode(body []byte, scratch []float64) {
	_, _, batch, err := decodeFrameBody(body, 1, 0, scratch)
	if err != nil {
		return
	}
	r.last = batch // want `stored into field r\.last`
}

// nilBody lends scratch beside a nil body: the matcher reads the last
// argument, not a fixed position: true positive.
func (r *receiver) nilBody(scratch []float64) {
	_, _, batch, _ := decodeFrameBody(nil, 1, 0, scratch)
	r.last = batch // want `stored into field r\.last`
}

// nilScratch hands ownership to the callee — the returned batch is freshly
// allocated, so keeping it is legal.
func (r *receiver) nilScratch(body []byte) {
	_, _, batch, _ := decodeFrameBody(body, 1, 0, nil)
	r.last = batch
}

// joined hands batches to workers the caller provably joins in-round; the
// finding is acknowledged with an allow.
func joined(tr transport.Interface[float64], w int) {
	batches := tr.Drain(w)
	go sink(batches) //lint:allow bufretain receiver goroutines are joined before the next Drain
}
