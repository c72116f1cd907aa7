package transport

// Per-peer accounting tests: the worker×worker matrix must agree with the
// global Stats counters on every transport — row sums are egress, column
// sums ingress, and the grand totals equal Stats.Messages/Bytes exactly.
// This is the property the /comm endpoint and the harness comm report build
// on, so it is pinned here at the source.

import (
	"math/rand"
	"sync"
	"testing"
)

// driveRandomTraffic sends a deterministic pseudo-random workload through tr
// from concurrent senders and returns the expected per-cell message counts.
func driveRandomTraffic(t *testing.T, tr Interface[int], n, rounds int) [][]int64 {
	t.Helper()
	want := make([][]int64, n)
	for i := range want {
		want[i] = make([]int64, n)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(from) + 1))
			for r := 0; r < rounds; r++ {
				for to := 0; to < n; to++ {
					k := rng.Intn(5) // 0 drops the batch: must not count
					batch := make([]int, k)
					tr.Send(from, to, batch)
					mu.Lock()
					want[from][to] += int64(k)
					mu.Unlock()
				}
				tr.FinishRound(from)
			}
		}(from)
	}
	wg.Wait()
	// Drain every endpoint so the RPC transport's rounds complete before the
	// counters are compared (Send is asynchronous over TCP until drained).
	for r := 0; r < rounds; r++ {
		for to := 0; to < n; to++ {
			tr.Drain(to)
		}
	}
	return want
}

func checkMatrixAgainstStats(t *testing.T, tr Interface[int], want [][]int64) {
	t.Helper()
	snap := tr.Matrix().Snapshot()
	st := tr.Stats().Snapshot()

	for f := range want {
		for to := range want[f] {
			if snap.Messages[f][to] != want[f][to] {
				t.Errorf("cell %d→%d = %d messages, want %d", f, to, snap.Messages[f][to], want[f][to])
			}
		}
	}
	if got := snap.TotalMessages(); got != st.Messages {
		t.Errorf("matrix total %d messages, Stats %d", got, st.Messages)
	}
	if got := snap.TotalBytes(); got != st.Bytes {
		t.Errorf("matrix total %d bytes, Stats %d", got, st.Bytes)
	}
	var egress, ingress int64
	for _, v := range snap.Egress() {
		egress += v
	}
	for _, v := range snap.Ingress() {
		ingress += v
	}
	if egress != st.Messages || ingress != st.Messages {
		t.Errorf("row sums %d / col sums %d, Stats %d", egress, ingress, st.Messages)
	}
}

func TestMatrixMatchesStatsLocalGlobal(t *testing.T) {
	tr := NewLocal[int](4, GlobalQueue, nil, intCodec{})
	want := driveRandomTraffic(t, tr, 4, 8)
	checkMatrixAgainstStats(t, tr, want)
}

func TestMatrixMatchesStatsLocalPerSender(t *testing.T) {
	tr := NewLocal[int](4, PerSenderQueue, nil, intCodec{})
	want := driveRandomTraffic(t, tr, 4, 8)
	checkMatrixAgainstStats(t, tr, want)
}

func TestMatrixMatchesStatsRPC(t *testing.T) {
	tr, err := NewRPC[int](3, nil, intCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := driveRandomTraffic(t, tr, 3, 4)
	checkMatrixAgainstStats(t, tr, want)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixSnapshotSubAddClone(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 1, 3, 48)
	base := m.Snapshot()
	m.Add(0, 1, 2, 32)
	m.Add(1, 0, 1, 16)
	cur := m.Snapshot()

	d := cur.Sub(base)
	if d.Messages[0][1] != 2 || d.Bytes[0][1] != 32 || d.Messages[1][0] != 1 {
		t.Fatalf("delta wrong: %+v", d)
	}
	// Sub against a zero-value snapshot is the identity (first superstep).
	if id := cur.Sub(MatrixSnapshot{}); id.TotalMessages() != cur.TotalMessages() {
		t.Fatalf("zero-prev Sub: %d, want %d", id.TotalMessages(), cur.TotalMessages())
	}
	// Folding the base and the delta back together recovers the cumulative.
	sum := MatrixSnapshot{}.AddInto(base).AddInto(d)
	if sum.TotalMessages() != cur.TotalMessages() || sum.TotalBytes() != cur.TotalBytes() {
		t.Fatalf("AddInto: %d/%d, want %d/%d",
			sum.TotalMessages(), sum.TotalBytes(), cur.TotalMessages(), cur.TotalBytes())
	}
	// Clone must not alias.
	c := cur.Clone()
	c.Messages[0][1] = 99
	if cur.Messages[0][1] == 99 {
		t.Fatal("Clone aliases the source")
	}

	if eg := cur.Egress(); eg[0] != 5 || eg[1] != 1 {
		t.Fatalf("egress %v", eg)
	}
	if in := cur.Ingress(); in[0] != 1 || in[1] != 5 {
		t.Fatalf("ingress %v", in)
	}
}

func TestMicroSenderMessagesSumToTotal(t *testing.T) {
	const total, senders = 1000, 7
	for _, r := range []MicroResult{
		MicroHama(total, senders),
		MicroPowerGraph(total, senders),
		MicroCyclops(total, senders),
	} {
		if err := VerifyMicro(r); err != nil {
			t.Fatal(err)
		}
		if len(r.SenderMessages) != senders {
			t.Fatalf("%s: %d sender counts, want %d", r.Impl, len(r.SenderMessages), senders)
		}
		var sum int64
		for _, v := range r.SenderMessages {
			sum += v
		}
		if sum != int64(r.Messages) {
			t.Fatalf("%s: sender counts sum %d, want %d", r.Impl, sum, r.Messages)
		}
	}
}
