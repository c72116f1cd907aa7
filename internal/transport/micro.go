package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cyclops/internal/obs/span"
)

// This file implements the Table 3 message-passing microbenchmark (§6.11):
// several workers concurrently send (index, value) messages that update the
// elements of an array owned by a master worker. Three implementations are
// compared:
//
//   - Hama style: batches are gob-encoded (standing in for Hadoop RPC's
//     heavyweight Writable serialisation), buffered in a single locked
//     global queue, and applied in a separate parse phase.
//   - PowerGraph style: the same queue-and-parse structure, but with a
//     compact hand-rolled binary encoding (standing in for Boost
//     serialisation, roughly an order of magnitude cheaper than gob).
//   - Cyclops style: no serialisation at all — each sender updates its
//     disjoint range of the array directly and in parallel, which is legal
//     because in Cyclops a replica receives at most one message (§3.4).
//
// The paper's result this reproduces: Hama ≈ 10× slower than PowerGraph,
// and Cyclops slightly faster than PowerGraph despite Hama's "RPC library".

// IndexValue is the microbenchmark message: one array update.
type IndexValue struct {
	Idx uint32
	Val float64
}

// MicroResult reports the phase split of one microbenchmark run, mirroring
// Table 3's SND / PRS / TOT columns.
type MicroResult struct {
	Impl     string
	Messages int
	Send     time.Duration // producing, serialising and enqueueing
	Parse    time.Duration // dequeueing, decoding and applying
	Total    time.Duration
	// Checksum guards against dead-code elimination and wrong results: it is
	// the sum of the final array, identical across implementations.
	Checksum float64
	// WireBytes is what each implementation materialises to move its
	// messages (12 bytes of uint32 index + float64 value each): gob frames
	// for hama, header+records for powergraph, zero for cyclops (direct
	// writes).
	WireBytes int64
	// SenderMessages is the per-peer accounting for the microbenchmark: one
	// count per sender. All traffic targets the single master, so the full
	// worker×worker matrix collapses to this egress vector; its sum equals
	// Messages, mirroring the Matrix/Stats consistency of the engine
	// transports.
	SenderMessages []int64
	// LinkedBatches counts the batches whose span tag survived the wire and
	// resolved back to the sending worker in the parse phase — the
	// microbenchmark's version of the causal sender→receiver span link. For
	// the Cyclops implementation every sender's direct write is its own send
	// span, so the count equals the sender count by construction.
	LinkedBatches int64
	// EncodeOps and DecodeOps count per-message serialisation work, so the
	// gob leg and the binary leg report Table 3 like-for-like: hama counts
	// each gob-encoded (and -decoded) message, powergraph each binary record,
	// cyclops zero on both sides (direct writes serialise nothing). A
	// serialising implementation decodes exactly what it encodes, so the two
	// counters must match — the wire tests assert that symmetry.
	EncodeOps int64
	DecodeOps int64
}

// microCtx is the span tag a microbenchmark sender stamps on its frames.
func microCtx(sender int) span.Context {
	return span.Context{Run: 1, Step: 0, Worker: int32(sender)}
}

// microFrame is the Hama-style wire format: the gob envelope carries the
// sender's span context alongside the batch, as the RPC transport's frames
// do.
type microFrame struct {
	Tag   span.Context
	Batch []IndexValue
}

// microSenderCounts returns how many messages each of the disjoint sender
// ranges covers. The sum is total by construction.
func microSenderCounts(total, senders int) []int64 {
	out := make([]int64, senders)
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		out[s] = int64(hi - lo)
	}
	return out
}

const microBatch = 4096

// fill plans the updates: message i sets arr[i] = i+1. Senders own disjoint
// index ranges, as Cyclops' replica ownership guarantees.
func microRange(total, senders, s int) (lo, hi int) {
	lo = s * total / senders
	hi = (s + 1) * total / senders
	return
}

func microChecksum(arr []float64) float64 {
	var sum float64
	for _, v := range arr {
		sum += v
	}
	return sum
}

// wantChecksum is the expected array sum: Σ (i+1) for i in [0, n).
func wantChecksum(n int) float64 { return float64(n) * float64(n+1) / 2 }

// MicroHama runs the Hama-style implementation: gob encoding + one locked
// global queue + a separate parse phase.
func MicroHama(total, senders int) MicroResult {
	arr := make([]float64, total)
	var mu sync.Mutex
	var queue [][]byte
	var wire, encOps atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		ctx := microCtx(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]IndexValue, 0, microBatch)
			flush := func() {
				if len(batch) == 0 {
					return
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(microFrame{Tag: ctx, Batch: batch}); err != nil {
					panic(err) // cannot happen for a concrete struct type
				}
				wire.Add(int64(buf.Len()))
				encOps.Add(int64(len(batch)))
				mu.Lock()
				queue = append(queue, buf.Bytes())
				mu.Unlock()
				batch = batch[:0]
			}
			for i := lo; i < hi; i++ {
				batch = append(batch, IndexValue{Idx: uint32(i), Val: float64(i + 1)})
				if len(batch) == microBatch {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()
	send := time.Since(start) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	parseStart := time.Now()
	var linked, decOps int64
	for _, raw := range queue {
		var f microFrame
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&f); err != nil {
			panic(err)
		}
		if f.Tag.Tagged() {
			linked++
		}
		decOps += int64(len(f.Batch))
		for _, m := range f.Batch {
			arr[m.Idx] = m.Val
		}
	}
	parse := time.Since(parseStart) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	return MicroResult{
		Impl: "hama", Messages: total,
		Send: send, Parse: parse, Total: send + parse,
		Checksum:       microChecksum(arr),
		WireBytes:      wire.Load(),
		SenderMessages: microSenderCounts(total, senders),
		LinkedBatches:  linked,
		EncodeOps:      encOps.Load(),
		DecodeOps:      decOps,
	}
}

// MicroPowerGraph runs the PowerGraph-style implementation: compact manual
// binary encoding (12 bytes/message) + locked queue + parse phase.
func MicroPowerGraph(total, senders int) MicroResult {
	arr := make([]float64, total)
	var mu sync.Mutex
	var queue [][]byte
	var wire, encOps atomic.Int64

	// The span tag rides a fixed 16-byte binary header (run int64, step
	// int32, worker int32), matching the implementation's hand-rolled
	// encoding style.
	const microHeader = 16
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		ctx := microCtx(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			header := func() []byte {
				buf := make([]byte, microHeader, microHeader+microBatch*12)
				binary.LittleEndian.PutUint64(buf[0:8], uint64(ctx.Run))
				binary.LittleEndian.PutUint32(buf[8:12], uint32(ctx.Step))
				binary.LittleEndian.PutUint32(buf[12:16], uint32(ctx.Worker))
				return buf
			}
			buf := header()
			flush := func() {
				if len(buf) == microHeader {
					return
				}
				wire.Add(int64(len(buf)))
				encOps.Add(int64((len(buf) - microHeader) / 12))
				mu.Lock()
				queue = append(queue, buf)
				mu.Unlock()
				buf = header()
			}
			for i := lo; i < hi; i++ {
				var rec [12]byte
				binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
				binary.LittleEndian.PutUint64(rec[4:12], math.Float64bits(float64(i+1)))
				buf = append(buf, rec[:]...)
				if len(buf) == microHeader+microBatch*12 {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()
	send := time.Since(start) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	parseStart := time.Now()
	var linked, decOps int64
	for _, raw := range queue {
		if binary.LittleEndian.Uint64(raw[0:8]) != 0 {
			linked++
		}
		for off := microHeader; off+12 <= len(raw); off += 12 {
			idx := binary.LittleEndian.Uint32(raw[off : off+4])
			val := math.Float64frombits(binary.LittleEndian.Uint64(raw[off+4 : off+12]))
			arr[idx] = val
			decOps++
		}
	}
	parse := time.Since(parseStart) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	return MicroResult{
		Impl: "powergraph", Messages: total,
		Send: send, Parse: parse, Total: send + parse,
		Checksum:       microChecksum(arr),
		WireBytes:      wire.Load(),
		SenderMessages: microSenderCounts(total, senders),
		LinkedBatches:  linked,
		EncodeOps:      encOps.Load(),
		DecodeOps:      decOps,
	}
}

// MicroCyclops runs the Cyclops-style implementation: senders update their
// disjoint slices of the array directly and in parallel, with no
// serialisation, no queue and no parse phase.
func MicroCyclops(total, senders int) MicroResult {
	arr := make([]float64, total)

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				arr[i] = float64(i + 1)
			}
		}()
	}
	wg.Wait()
	send := time.Since(start) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	return MicroResult{
		Impl: "cyclops", Messages: total,
		Send: send, Parse: 0, Total: send,
		Checksum: microChecksum(arr),
		// WireBytes stays zero: direct writes materialise no frames at all,
		// which is precisely the paper's point about the §3.4 one-message
		// guarantee.
		SenderMessages: microSenderCounts(total, senders),
		// No frames to tag: each sender's direct write carries its span
		// context implicitly, so every sender is its own linked "batch".
		LinkedBatches: int64(senders),
	}
}

// VerifyMicro checks a result's checksum against the expected array sum.
func VerifyMicro(r MicroResult) error {
	want := wantChecksum(r.Messages)
	if math.Abs(r.Checksum-want) > 1e-6*want {
		return fmt.Errorf("transport: %s checksum %g, want %g", r.Impl, r.Checksum, want)
	}
	return nil
}
