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
	// for hama, bare records for powergraph, zero for cyclops (direct
	// writes).
	WireBytes int64
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
	var wire atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]IndexValue, 0, microBatch)
			flush := func() {
				if len(batch) == 0 {
					return
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(batch); err != nil {
					panic(err) // cannot happen for a concrete struct type
				}
				wire.Add(int64(buf.Len()))
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
	for _, raw := range queue {
		var batch []IndexValue
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&batch); err != nil {
			panic(err)
		}
		for _, m := range batch {
			arr[m.Idx] = m.Val
		}
	}
	parse := time.Since(parseStart) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	return MicroResult{
		Impl: "hama", Messages: total,
		Send: send, Parse: parse, Total: send + parse,
		Checksum:  microChecksum(arr),
		WireBytes: wire.Load(),
	}
}

// MicroPowerGraph runs the PowerGraph-style implementation: compact manual
// binary encoding (12 bytes/message) + locked queue + parse phase.
func MicroPowerGraph(total, senders int) MicroResult {
	arr := make([]float64, total)
	var mu sync.Mutex
	var queue [][]byte
	var wire atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		lo, hi := microRange(total, senders, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, microBatch*12)
			flush := func() {
				if len(buf) == 0 {
					return
				}
				wire.Add(int64(len(buf)))
				mu.Lock()
				queue = append(queue, buf)
				mu.Unlock()
				buf = make([]byte, 0, microBatch*12)
			}
			for i := lo; i < hi; i++ {
				var rec [12]byte
				binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
				binary.LittleEndian.PutUint64(rec[4:12], math.Float64bits(float64(i+1)))
				buf = append(buf, rec[:]...)
				if len(buf) == microBatch*12 {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()
	send := time.Since(start) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	parseStart := time.Now()
	for _, raw := range queue {
		for off := 0; off+12 <= len(raw); off += 12 {
			idx := binary.LittleEndian.Uint32(raw[off : off+4])
			val := math.Float64frombits(binary.LittleEndian.Uint64(raw[off+4 : off+12]))
			arr[idx] = val
		}
	}
	parse := time.Since(parseStart) //lint:allow determinism wall-clock is the measurement in the Table 3 microbenchmark

	return MicroResult{
		Impl: "powergraph", Messages: total,
		Send: send, Parse: parse, Total: send + parse,
		Checksum:  microChecksum(arr),
		WireBytes: wire.Load(),
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
