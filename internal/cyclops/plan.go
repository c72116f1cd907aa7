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
// Each direction walks the batch against its row once; values whose codec
// declares them raw (graph.Raw64) are copied, not coded through the
// interface.
type syncCodec[M any] struct {
	inner graph.Codec[M]
	width int                    // graph.FixedSize(inner)
	plan  []graph.CSR[planEntry] // per sending worker, one row per peer
}

func newSyncCodec[M any](inner graph.Codec[M], plan []graph.CSR[planEntry]) syncCodec[M] {
	return syncCodec[M]{inner: inner, width: graph.FixedSize(inner), plan: plan}
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

// positional reports whether a body of n messages against a plan row of
// rowLen entries, whose activation is uniform or not, ships positionally:
// whether its bitmaps are no larger than the 5 bytes a message by slot pays.
func positional(rowLen, n int, uniform bool) bool {
	extra := bitmapBytes(rowLen)
	if !uniform {
		extra += bitmapBytes(n)
	}
	return n <= rowLen && extra <= 5*n
}

func (c syncCodec[M]) BodySize(from, to int, batch []syncMsg[M]) int {
	row, n := c.plan[from].Row(to), 1+5*len(batch)
	if positional(len(row), len(batch), true) {
		on, ok := walk(row, batch, nil)
		if uniform := on == 0 || on == len(batch); ok && positional(len(row), len(batch), uniform) {
			n = 1 + bitmapBytes(len(row))
			if !uniform {
				n += bitmapBytes(len(batch))
			}
		}
	}
	if c.width > 0 {
		return n + c.width*len(batch)
	}
	for i := range batch {
		n += c.inner.EncodedSize(batch[i].Val)
	}
	return n
}

func (c syncCodec[M]) AppendBody(dst []byte, from, to int, batch []syncMsg[M]) []byte {
	row := c.plan[from].Row(to)
	if positional(len(row), len(batch), true) {
		var ok bool
		if dst, ok = c.appendPositional(dst, row, batch); ok {
			return dst
		}
	}
	if c.width > 0 {
		dst = slices.Grow(dst, 1+(5+c.width)*len(batch))
	}
	dst = append(dst, bodyBySlot)
	for i := range batch {
		dst = c.Append(dst, batch[i])
	}
	return dst
}

// appendPositional appends batch's positional body, grown to its size once:
// one walk checks the batch against row, sets the presence bits and counts
// activations; then the values are written, raw ones copied in a loop of
// their own (faster than copying inside the walk, which then keeps fewer of
// its values in registers). It reports false, with dst cut back to where it
// was, when the batch is no subsequence of row or its activation bitmap would
// make the body larger than by slot.
func (c syncCodec[M]) appendPositional(dst []byte, row []planEntry, batch []syncMsg[M]) ([]byte, bool) {
	head, n := len(dst), len(batch)
	vals := head + 1 + bitmapBytes(len(row))
	dst = slices.Grow(dst, vals-head+c.width*n+bitmapBytes(n))[:vals]
	clear(dst[head:])
	on, ok := walk(row, batch, dst[head+1:vals])
	if !ok || on != 0 && on != n && !positional(len(row), n, false) {
		return dst[:head], false
	}
	if graph.Raw64(c.inner) {
		dst = dst[:vals+8*n]
		for i := range batch {
			binary.LittleEndian.PutUint64(dst[vals+8*i:vals+8*i+8], graph.Word64(&batch[i].Val))
		}
	} else {
		for i := range batch {
			dst = c.inner.Append(dst, batch[i].Val)
		}
	}
	switch on {
	case 0:
		dst[head] = bodyUniform
		return dst, true
	case n:
		dst[head] = bodyUniform | bodyActOn
		return dst, true
	}
	acts := len(dst)
	dst = slices.Grow(dst, bitmapBytes(n))[:acts+bitmapBytes(n)]
	var word uint64
	for i := range batch {
		if batch[i].Activate {
			word |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 || i == n-1 {
			putWord(dst[acts+8*(i>>6):], word)
			word = 0
		}
	}
	return dst, true
}

// walk is the encoder's pass over the batch, and BodySize's without present:
// it reports whether batch is an in-order subsequence of row and counts its
// activations. The batch is merged against row entry by entry (a run of
// entries it skips passes in a tight loop, up to the end of its 64-entry
// block); presence bits gather in a register word stored once per block.
func walk[M any](row []planEntry, batch []syncMsg[M], present []byte) (on int, ok bool) {
	var word uint64
	i, j := 0, 0
	for ; j < len(row) && i < len(batch); j++ {
		if r, s := row[j].replica, batch[i].Slot; r == s {
			word |= 1 << (uint(j) & 63)
			if batch[i].Activate {
				on++
			}
			i++
		} else if r > s {
			return 0, false
		} else {
			for j&63 != 63 && j+1 < len(row) && row[j+1].replica < s {
				j++
			}
		}
		if j&63 == 63 && present != nil {
			putWord(present[j/64*8:], word)
			word = 0
		}
	}
	if j&63 != 0 && present != nil {
		putWord(present[j/64*8:], word)
	}
	return on, i == len(batch)
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
		if len(src) != 0 {
			return graph.ErrShortBuffer
		}
		return nil
	}
	if mode&^(bodyUniform|bodyActOn) != 0 || mode == bodyActOn {
		return transport.ErrFrameCorrupt
	}
	present, rest, err := cutBitmap(src, len(row), len(batch))
	if err != nil {
		return err
	}
	var raw []byte
	if graph.Raw64(c.inner) {
		if len(rest) < 8*len(batch) {
			return graph.ErrShortBuffer
		}
		raw, rest = rest[:8*len(batch)], rest[8*len(batch):]
	} else {
		for i := range batch {
			v, n, err := c.inner.Decode(rest)
			if err != nil {
				return err
			}
			batch[i].Val, rest = v, rest[n:]
		}
	}
	var acts []byte
	if mode&bodyUniform == 0 {
		if acts, rest, err = cutBitmap(rest, len(batch), -1); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return graph.ErrShortBuffer
	}
	// One write per message — slot, value when raw, activation when uniform
	// — then a mixed batch's activation bits.
	decode(batch, row, present, raw, mode&bodyActOn != 0)
	if acts != nil {
		for i := range batch {
			batch[i].Activate = acts[uint(i)/8]>>(uint(i)%8)&1 != 0
		}
	}
	return nil
}

// decode writes batch: message i refreshes the entry of the i-th set bit of
// present, found a word at a time, with the i-th value of raw unless raw is
// nil (the codec decoded it already); a word of 64 set bits is a run.
func decode[M any](batch []syncMsg[M], row []planEntry, present, raw []byte, on bool) {
	i := 0
	for base := 0; i < len(batch); base += 64 {
		word := wordAt(present[base/8:])
		if word == ^uint64(0) {
			decodeRun(batch[i:i+64], row[base:base+64], raw, i, on)
			i += 64
			continue
		}
		for ; word != 0; word &= word - 1 {
			m := &batch[i]
			m.Slot, m.Activate = row[base+bits.TrailingZeros64(word)].replica, on
			if raw != nil {
				m.Val = graph.FromWord64[M](binary.LittleEndian.Uint64(raw[8*i : 8*i+8]))
			}
			i++
		}
	}
}

// decodeRun is decode over a word of 64 set bits: run, which starts at
// message at, refreshes row's entries in order.
func decodeRun[M any](run []syncMsg[M], row []planEntry, raw []byte, at int, on bool) {
	row = row[:len(run)]
	if raw == nil {
		for k := range run {
			run[k].Slot, run[k].Activate = row[k].replica, on
		}
		return
	}
	raw = raw[8*at : 8*(at+len(run))]
	for k := range run {
		run[k] = syncMsg[M]{Slot: row[k].replica, Val: graph.FromWord64[M](binary.LittleEndian.Uint64(raw[8*k : 8*k+8])), Activate: on}
	}
}

func bitmapBytes(n int) int { return (n + 7) / 8 }

// wordAt reads up to 8 bytes of a bitmap as one little-endian word.
func wordAt(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, x := range b {
		w |= uint64(x) << (8 * i)
	}
	return w
}

// putWord stores w little-endian in up to 8 bytes of b.
func putWord(b []byte, w uint64) {
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
}

// cutBitmap splits an n-bit bitmap off src: whole, clear past bit n, and
// with exactly ones bits set unless ones < 0.
func cutBitmap(src []byte, n, ones int) (bitmap, rest []byte, err error) {
	k := bitmapBytes(n)
	if len(src) < k {
		return nil, nil, graph.ErrShortBuffer
	}
	set := 0
	for b := 0; b < k; b += 8 {
		set += bits.OnesCount64(wordAt(src[b:k]))
	}
	if n%8 != 0 && src[k-1]>>(n%8) != 0 || ones >= 0 && set != ones {
		return nil, nil, transport.ErrFrameCorrupt
	}
	return src[:k], src[k:], nil
}
