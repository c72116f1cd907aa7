package cyclops

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cyclops/internal/graph"
)

// bodyForms are the three ways one float64 sync body can be written: raw
// (values copied, as graph.Float64Codec declares), generic at the codec's
// fixed width, and generic with no declared width (values summed per
// message). All three must agree to the byte.
func bodyForms(plan []graph.CSR[planEntry]) []syncCodec[float64] {
	return []syncCodec[float64]{
		newSyncCodec[float64](graph.Float64Codec{}, plan),
		newSyncCodec[float64](rawBlind[float64]{graph.Float64Codec{}, 8}, plan),
		newSyncCodec[float64](rawBlind[float64]{graph.Float64Codec{}, 0}, plan),
	}
}

// randomPlan is a send plan over workers workers whose rows run from empty to
// a few hundred entries, with replica slots rising by gaps of 1 to 3 past the
// four master slots each worker owns.
func randomPlan(rng *rand.Rand, workers int) []graph.CSR[planEntry] {
	rows := map[[2]int][]planEntry{}
	for w := 0; w < workers; w++ {
		for p := 0; p < workers; p++ {
			if p == w {
				continue
			}
			n := []int{0, 1, 7, 8, 63, 64, 65, 200, 300}[rng.Intn(9)] + rng.Intn(3)
			slot := int32(4)
			for i := 0; i < n; i++ {
				rows[[2]int{w, p}] = append(rows[[2]int{w, p}], planEntry{master: int32(i % 4), replica: slot})
				slot += 1 + int32(rng.Intn(3))
			}
		}
	}
	return planOf(workers, rows)
}

// randomBatch draws a batch against row: the whole row or a share of it,
// with activation all on, all off or mixed, and sometimes a batch no plan
// row can address positionally — two messages swapped, one repeated, or a
// slot outside the row.
func randomBatch(rng *rand.Rand, row []planEntry) []fmsg {
	density := []float64{1, 1, 0.5, 0.1, 0.02}[rng.Intn(5)]
	act := rng.Intn(3) // 0 all off, 1 all on, 2 mixed
	var batch []fmsg
	for _, pe := range row {
		if density == 1 || rng.Float64() < density {
			m := fmsg{Slot: pe.replica, Val: math.Float64frombits(rng.Uint64()), Activate: act == 1 || act == 2 && rng.Intn(2) == 0}
			batch = append(batch, m)
		}
	}
	switch k := rng.Intn(8); {
	case len(batch) == 0 || k == 0:
		batch = append(batch, fmsg{Slot: int32(rng.Intn(4)), Val: 1}) // a master slot
	case k == 1 && len(batch) > 1:
		i := rng.Intn(len(batch) - 1)
		batch[i], batch[i+1] = batch[i+1], batch[i]
	case k == 2:
		i := rng.Intn(len(batch))
		batch = append(batch[:i+1], batch[i:]...)
	}
	return batch
}

// decodeAll decodes body as n messages through every form and requires
// every form to reach the same outcome: the same batch, or the same error
// class. It returns that outcome.
func decodeAll(t *testing.T, forms []syncCodec[float64], body []byte, from, to, n int) ([]fmsg, string) {
	t.Helper()
	var first []fmsg
	var class string
	for f, c := range forms {
		got := make([]fmsg, n)
		err := c.DecodeBody(body, from, to, got)
		if f == 0 {
			first, class = got, errClass(err)
			continue
		}
		if errClass(err) != class || err == nil && !sameMsgs(got, first) {
			t.Fatalf("%d→%d body %x as %d messages: form 0 gives %s %+v, form %d gives %v %+v",
				from, to, body, n, class, first, f, err, got)
		}
	}
	return first, class
}

// TestSyncBodyDifferential: over random send plans, batch densities and
// activation patterns (uniform on, uniform off, mixed), and batches that are
// no plan subsequence, the raw form and the generic forms write the same
// bytes, BodySize prices them exactly, and they decode them to the same batch
// — the one sent. Each form rejects a torn body, a count that is not the
// presence bitmap's popcount, a bit past the row and an undefined mode bit,
// with the same error class.
func TestSyncBodyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 400; trial++ {
		workers := 2 + rng.Intn(3)
		plan := randomPlan(rng, workers)
		forms := bodyForms(plan)
		from, to := rng.Intn(workers), rng.Intn(workers)
		row := plan[from].Row(to)
		batch := randomBatch(rng, row)
		id := fmt.Sprintf("trial %d: %d→%d, %d of %d", trial, from, to, len(batch), len(row))

		var body []byte
		for f, c := range forms {
			got := c.AppendBody([]byte{0xA5}, from, to, batch)
			if got[0] != 0xA5 {
				t.Fatalf("%s: form %d overwrote what dst held", id, f)
			}
			got = got[1:]
			if n := c.BodySize(from, to, batch); n != len(got) {
				t.Fatalf("%s: form %d wrote %d bytes, BodySize says %d", id, f, len(got), n)
			}
			if f > 0 && !bytes.Equal(got, body) {
				t.Fatalf("%s: form %d wrote %x, form 0 %x", id, f, got, body)
			}
			body = got
		}
		if got, class := decodeAll(t, forms, body, from, to, len(batch)); class == "ok" && !sameMsgs(got, batch) {
			t.Fatalf("%s: decodes to %+v, sent %+v", id, got, batch)
		}

		positional, k := body[0] != bodyBySlot, bitmapBytes(len(row))
		corrupt := map[string][]byte{
			"torn":               body[:rng.Intn(len(body))],
			"undefined mode":     append([]byte{body[0] | 1<<(3+rng.Intn(5))}, body[1:]...),
			"on without uniform": append([]byte{bodyActOn}, body[1:]...),
		}
		if positional {
			corrupt["torn bitmap"] = body[:1+rng.Intn(k)]
			if len(row)%8 != 0 {
				past := bytes.Clone(body)
				past[k] |= 0x80
				corrupt["bit past the row"] = past
			}
		}
		for what, bad := range corrupt {
			if _, class := decodeAll(t, forms, bad, from, to, len(batch)); class == "ok" {
				t.Fatalf("%s: %s body %x decoded", id, what, bad)
			}
		}
		for _, n := range []int{len(batch) - 1, len(batch) + 1} {
			if n < 1 {
				continue
			}
			if _, class := decodeAll(t, forms, body, from, to, n); class == "ok" {
				t.Fatalf("%s: %d-message body decoded as %d messages", id, len(batch), n)
			}
		}
		flip := bytes.Clone(body)
		flip[rng.Intn(len(flip))] ^= 1 << rng.Intn(8)
		decodeAll(t, forms, flip, from, to, len(batch))
	}
}

// BenchmarkSyncCodec prices a sync frame body per message over one
// 8 192-entry plan row: the whole row with every replica activated; the row
// but one entry in 97, as dense PageRank fills it (a vertex without in-edges
// never publishes); every other entry; and the whole row with activation
// alternating (an activation bitmap rides along). Each case runs
// the raw form (values copied as graph.Float64Codec declares) and the
// generic form (the same codec through Append and Decode): encode is
// AppendBody into a grown buffer, decode DecodeBody into a reused batch,
// size BodySize, the in-process transport's price. 0 allocs/op throughout.
//
//	go test ./internal/cyclops/ -run '^$' -bench BenchmarkSyncCodec -benchmem
func BenchmarkSyncCodec(b *testing.B) {
	const n = 8192
	row := make([]planEntry, n)
	for i := range row {
		row[i] = planEntry{master: int32(i), replica: int32(n + i)}
	}
	plan := planOf(2, map[[2]int][]planEntry{{0, 1}: row})
	full, half, mixed := make([]fmsg, n), make([]fmsg, 0, n/2), make([]fmsg, n)
	var dense []fmsg
	for i, pe := range row {
		full[i] = fmsg{Slot: pe.replica, Val: float64(i) / 3, Activate: true}
		mixed[i] = fmsg{Slot: pe.replica, Val: float64(i) / 3, Activate: i%2 == 0}
		if i%2 == 0 {
			half = append(half, full[i])
		}
		if i%97 != 0 {
			dense = append(dense, full[i])
		}
	}
	forms := bodyForms(plan)[:2]
	for _, bc := range []struct {
		name  string
		batch []fmsg
	}{{"full-row", full}, {"dense-row", dense}, {"half-row", half}, {"mixed-activation", mixed}} {
		for f, form := range []string{"raw", "generic"} {
			c := forms[f]
			body := c.AppendBody(nil, 0, 1, bc.batch)
			got := make([]fmsg, len(bc.batch))
			perMsg := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.batch)), "ns/msg")
			}
			b.Run(bc.name+"/"+form+"/encode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					body = c.AppendBody(body[:0], 0, 1, bc.batch)
				}
				perMsg(b)
			})
			b.Run(bc.name+"/"+form+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeBody(body, 0, 1, got); err != nil {
						b.Fatal(err)
					}
				}
				perMsg(b)
			})
			b.Run(bc.name+"/"+form+"/size", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if c.BodySize(0, 1, bc.batch) != len(body) {
						b.Fatal("BodySize disagrees with AppendBody")
					}
				}
				perMsg(b)
			})
		}
	}
}
