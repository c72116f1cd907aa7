package cyclops

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"cyclops/internal/graph"
	"cyclops/internal/transport"
)

// planEntry is one replica in the send plan, the replica topology fixed at
// ingress (§3.4): plan[w].Row(p) pairs each master slot on w that p
// replicates with its replica's slot on p, ascending in both (SND's order; p
// numbers replicas in vertex order too), so both ends of a w→p frame know
// what it can refresh, and in what order, before a byte arrives.
type planEntry struct{ master, replica int32 }

// syncCodec encodes sync messages, alone as 4B slot + 1B activation + value.
// A frame body is a mode byte, then — when the batch is an in-order
// subsequence of its from→to plan and that is no larger — a presence bitmap
// over the plan, the values, and an activation bitmap unless bodyUniform
// carries them all; else the messages one by one (slots the plan cannot
// address, like the audit tests'). Dense PageRank ships 8 B a replica, not 13.
type syncCodec[M any] struct {
	inner graph.Codec[M]
	width int                    // graph.FixedSize(inner)
	plan  []graph.CSR[planEntry] // per sending worker, one row per peer
}

// Frame-body mode bits. Any other bit, or bodyActOn without bodyUniform, is
// a corrupt frame.
const (
	bodyBySlot  = 1 << 0 // the messages one by one; set alone
	bodyUniform = 1 << 1 // every activation is bodyActOn
	bodyActOn   = 1 << 2
)

func (c syncCodec[M]) EncodedSize(m syncMsg[M]) int { return 5 + c.inner.EncodedSize(m.Val) }

func (c syncCodec[M]) Append(dst []byte, m syncMsg[M]) []byte {
	var act byte
	if m.Activate {
		act = 1
	}
	return c.inner.Append(append(graph.AppendUint32(dst, uint32(m.Slot)), act), m.Val)
}

func (c syncCodec[M]) Decode(src []byte) (syncMsg[M], int, error) {
	if len(src) < 5 {
		return syncMsg[M]{}, 0, graph.ErrShortBuffer
	}
	val, n, err := c.inner.Decode(src[5:])
	if err != nil {
		return syncMsg[M]{}, 0, err
	}
	return syncMsg[M]{Slot: int32(binary.LittleEndian.Uint32(src)), Val: val, Activate: src[4] != 0}, 5 + n, nil
}

// layout decides a non-empty batch's body: its from→to plan row, whether it
// ships positionally and with uniform activation, and the bytes it spends
// besides the mode byte and the values.
func (c syncCodec[M]) layout(from, to int, batch []syncMsg[M]) (row []planEntry, positional, uniform bool, extra int) {
	row, uniform, j := c.plan[from].Row(to), true, 0
	for i := range batch {
		for j < len(row) && row[j].replica < batch[i].Slot {
			j++
		}
		if j == len(row) || row[j].replica != batch[i].Slot {
			return row, false, false, 5 * len(batch)
		}
		j++
		uniform = uniform && batch[i].Activate == batch[0].Activate
	}
	if extra = (len(row) + 7) / 8; !uniform {
		extra += (len(batch) + 7) / 8
	}
	if extra > 5*len(batch) {
		return row, false, false, 5 * len(batch)
	}
	return row, true, uniform, extra
}

func (c syncCodec[M]) BodySize(from, to int, batch []syncMsg[M]) int {
	_, _, _, n := c.layout(from, to, batch)
	if c.width > 0 {
		return 1 + n + c.width*len(batch)
	}
	for i := range batch {
		n += c.inner.EncodedSize(batch[i].Val)
	}
	return 1 + n
}

func (c syncCodec[M]) AppendBody(dst []byte, from, to int, batch []syncMsg[M]) []byte {
	row, positional, uniform, _ := c.layout(from, to, batch)
	if !positional {
		dst = append(dst, bodyBySlot)
		for i := range batch {
			dst = c.Append(dst, batch[i])
		}
		return dst
	}
	var mode byte
	if uniform {
		mode = bodyUniform
		if batch[0].Activate {
			mode |= bodyActOn
		}
	}
	present, k := len(dst)+1, (len(row)+7)/8
	dst = slices.Grow(append(dst, mode), k)[:present+k]
	clear(dst[present:])
	for i, j := 0, 0; i < len(batch); j++ {
		if row[j].replica == batch[i].Slot {
			dst[present+j/8] |= 1 << (j % 8)
			i++
		}
	}
	for i := range batch {
		dst = c.inner.Append(dst, batch[i].Val)
	}
	if !uniform {
		acts, k := len(dst), (len(batch)+7)/8
		dst = slices.Grow(dst, k)[:acts+k]
		clear(dst[acts:])
		for i := range batch {
			if batch[i].Activate {
				dst[acts+i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst
}

// DecodeBody implements transport.BodyCodec. It is total: it fills batch
// with replica slots of the from→to plan — never a master slot — or returns
// graph.ErrShortBuffer or transport.ErrFrameCorrupt.
func (c syncCodec[M]) DecodeBody(src []byte, from, to int, batch []syncMsg[M]) error {
	if min(from, to) < 0 || max(from, to) >= len(c.plan) || len(src) == 0 {
		return transport.ErrFrameCorrupt
	}
	row, mode, src := c.plan[from].Row(to), src[0], src[1:]
	if mode == bodyBySlot {
		for i := range batch {
			m, n, err := c.Decode(src)
			if err != nil {
				return err
			}
			if _, ok := slices.BinarySearchFunc(row, m.Slot, func(pe planEntry, s int32) int {
				return cmp.Compare(pe.replica, s)
			}); !ok {
				return transport.ErrFrameCorrupt
			}
			batch[i], src = m, src[n:]
		}
	} else {
		if mode&^(bodyUniform|bodyActOn) != 0 || mode == bodyActOn {
			return transport.ErrFrameCorrupt
		}
		present, rest, err := cutBitmap(src, len(row), len(batch))
		if err != nil {
			return err
		}
		for i, j := 0, 0; i < len(batch); j++ {
			if present[j/8]>>(j%8)&1 != 0 {
				batch[i].Slot, i = row[j].replica, i+1
			}
		}
		for i := range batch {
			v, n, err := c.inner.Decode(rest)
			if err != nil {
				return err
			}
			batch[i].Val, rest = v, rest[n:]
		}
		var acts []byte
		if mode&bodyUniform == 0 {
			if acts, rest, err = cutBitmap(rest, len(batch), -1); err != nil {
				return err
			}
		}
		for i := range batch {
			batch[i].Activate = mode&bodyActOn != 0 || acts != nil && acts[i/8]>>(i%8)&1 != 0
		}
		src = rest
	}
	if len(src) != 0 {
		return graph.ErrShortBuffer
	}
	return nil
}

// cutBitmap splits an n-bit bitmap off src: whole, clear past bit n, and
// with exactly ones bits set unless ones < 0.
func cutBitmap(src []byte, n, ones int) (bitmap, rest []byte, err error) {
	k := (n + 7) / 8
	if len(src) < k {
		return nil, nil, graph.ErrShortBuffer
	}
	set := 0
	for _, b := range src[:k] {
		set += bits.OnesCount8(b)
	}
	if n%8 != 0 && src[k-1]>>(n%8) != 0 || ones >= 0 && set != ones {
		return nil, nil, transport.ErrFrameCorrupt
	}
	return src[:k], src[k:], nil
}
