package transport

import (
	"sync"
	"testing"
	"testing/quick"

	"cyclops/internal/graph"
)

type msg struct {
	V uint32
	X float64
}

func TestLocalDeliversBothModes(t *testing.T) {
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		tr := NewLocal[msg](3, mode, msgCodec{})
		tr.Send(0, 2, []msg{{1, 1.5}, {2, 2.5}})
		tr.Send(1, 2, []msg{{3, 3.5}})
		tr.Send(0, 1, []msg{{9, 9}})
		got := map[uint32]float64{}
		for _, b := range tr.Drain(2) {
			for _, m := range b {
				got[m.V] = m.X
			}
		}
		if len(got) != 3 || got[1] != 1.5 || got[3] != 3.5 {
			t.Fatalf("%v: drained %v", mode, got)
		}
		if len(tr.Drain(2)) != 0 {
			t.Fatalf("%v: drain must clear", mode)
		}
		if !tr.Pending(1) {
			t.Fatalf("%v: worker 1 should have pending", mode)
		}
	}
}

func TestLocalEmptyBatchDropped(t *testing.T) {
	tr := NewLocal[msg](2, GlobalQueue, msgCodec{})
	tr.Send(0, 1, nil)
	if tr.Stats().Batches() != 0 || tr.Pending(1) {
		t.Fatal("empty batch must be dropped entirely")
	}
}

func TestLocalStatsAndLockAccounting(t *testing.T) {
	g := NewLocal[msg](2, GlobalQueue, msgCodec{})
	g.Send(0, 1, []msg{{1, 1}, {2, 2}})
	if s := g.Stats().Snapshot(); s.Messages != 2 || s.Batches != 1 || s.WireBytes != FrameHeaderBytes+2*12 || s.LockedEnqueues != 1 {
		t.Fatalf("global stats = %+v", s)
	}
	p := NewLocal[msg](2, PerSenderQueue, msgCodec{})
	p.Send(0, 1, []msg{{1, 1}, {2, 2}, {3, 3}})
	if s := p.Stats().Snapshot(); s.Messages != 3 || s.WireBytes != FrameHeaderBytes+3*12 || s.LockedEnqueues != 0 {
		t.Fatalf("per-sender stats = %+v", s)
	}
}

func TestLocalConcurrentSenders(t *testing.T) {
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		tr := NewLocal[msg](8, mode, msgCodec{})
		const per = 500
		var wg sync.WaitGroup
		for from := 0; from < 8; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tr.Send(from, 3, []msg{{uint32(from), float64(i)}})
				}
			}(from)
		}
		wg.Wait()
		// Whatever the arrival order, batches drain by sender, then in the
		// order each sender sent them.
		var got []msg
		for _, b := range tr.Drain(3) {
			got = append(got, b...)
		}
		if len(got) != 8*per {
			t.Fatalf("%v: delivered %d, want %d", mode, len(got), 8*per)
		}
		for i, m := range got {
			if m != (msg{uint32(i / per), float64(i % per)}) {
				t.Fatalf("%v: message %d is %+v, out of (sender, send) order", mode, i, m)
			}
		}
	}
}

// TestLocalDrainZeroAlloc: once the queues and the receiver's out slice have
// grown, a send-send-drain round allocates nothing in either mode.
func TestLocalDrainZeroAlloc(t *testing.T) {
	a, b := []msg{{1, 1}}, []msg{{2, 2}}
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		tr := NewLocal[msg](2, mode, msgCodec{})
		allocs := testing.AllocsPerRun(100, func() {
			tr.Send(1, 0, b)
			tr.Send(0, 0, a)
			if got := tr.Drain(0); len(got) != 2 || got[0][0] != a[0] || got[1][0] != b[0] {
				t.Fatalf("%v: drained %v", mode, got)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: send-send-drain allocates %v objects in steady state, want 0", mode, allocs)
		}
	}
}

// TestFirstRoundAllocatesNothing: the inboxes are sized when the transport is
// made, so a fresh transport's first round — every worker sends one batch to
// every worker, then every worker drains — allocates nothing in either mode.
func TestFirstRoundAllocatesNothing(t *testing.T) {
	const n = 4
	batch := []msg{{1, 1}}
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		// One fresh transport per call: AllocsPerRun's warm-up call takes the first.
		fresh := []*Local[msg]{NewLocal[msg](n, mode, msgCodec{}), NewLocal[msg](n, mode, msgCodec{})}
		allocs := testing.AllocsPerRun(1, func() {
			tr := fresh[0]
			fresh = fresh[1:]
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					tr.Send(from, to, batch)
				}
			}
			for to := 0; to < n; to++ {
				if got := tr.Drain(to); len(got) != n || len(got[n-1]) != len(batch) {
					t.Fatalf("%v: worker %d drained %v, want one batch from each of %d senders", mode, to, got, n)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: a fresh transport's first round allocates %v objects, want 0", mode, allocs)
		}
	}
}

// countingCodec is intCodec counting its EncodedSize calls; fixedCounting
// also declares its width.
type countingCodec struct {
	intCodec
	calls *int
}

func (c countingCodec) EncodedSize(m int) int { *c.calls++; return c.intCodec.EncodedSize(m) }

type fixedCounting struct{ countingCodec }

func (fixedCounting) FixedSize() int { return 8 }

// TestLocalPricesFixedWidthPerFrame: a fixed-width batch is priced at the
// bytes its frame would hold without one EncodedSize call per message.
func TestLocalPricesFixedWidthPerFrame(t *testing.T) {
	batch := make([]int, 4096)
	var calls int
	counted := countingCodec{calls: &calls}
	for _, tc := range []struct {
		codec graph.Codec[int]
		calls int
	}{{fixedCounting{counted}, 0}, {counted, len(batch)}} {
		calls = 0
		tr := NewLocal[int](2, PerSenderQueue, tc.codec)
		tr.Send(0, 1, batch)
		if wire := tr.Stats().WireBytes(); calls != tc.calls || wire != FrameHeaderBytes+8*int64(len(batch)) {
			t.Errorf("%T: %d EncodedSize calls and %d wire bytes, want %d calls and %d bytes",
				tc.codec, calls, wire, tc.calls, FrameHeaderBytes+8*len(batch))
		}
	}
}

// BenchmarkLocalSend prices the in-process path per message: one
// 4096-float64 batch sent (booked on the matrix, wire priced) and drained, in
// each queue mode. Every cost on it is per batch, so ns/msg is a few
// hundredths of a nanosecond; a per-message cost creeping back in shows here.
func BenchmarkLocalSend(b *testing.B) {
	batch := make([]float64, 4096)
	for _, mode := range []QueueMode{GlobalQueue, PerSenderQueue} {
		b.Run(mode.String(), func(b *testing.B) {
			tr := NewLocal[float64](2, mode, graph.Float64Codec{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Send(0, 1, batch)
				if len(tr.Drain(1)) != 1 {
					b.Fatal("batch lost")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/msg")
		})
	}
}

// Property: message conservation — everything sent is drained exactly once,
// regardless of interleaving and mode.
func TestLocalConservationProperty(t *testing.T) {
	f := func(seed int64, modeRaw bool, plan []uint8) bool {
		mode := GlobalQueue
		if modeRaw {
			mode = PerSenderQueue
		}
		const n = 4
		tr := NewLocal[msg](n, mode, msgCodec{})
		sent := 0
		for i, p := range plan {
			from, to := int(p)%n, int(p/4)%n
			batch := []msg{{uint32(i), float64(i)}}
			tr.Send(from, to, batch)
			sent++
		}
		got := 0
		for to := 0; to < n; to++ {
			for _, b := range tr.Drain(to) {
				got += len(b)
			}
		}
		return got == sent && tr.Stats().Messages() == int64(sent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	tr, err := NewRPC[msg](3, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var wg sync.WaitGroup
	for from := 0; from < 3; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for to := 0; to < 3; to++ {
				tr.Send(from, to, []msg{{uint32(from*10 + to), 1}})
			}
			tr.FinishRound(from)
		}(from)
	}
	wg.Wait()

	for to := 0; to < 3; to++ {
		batches := tr.Drain(to)
		got := map[uint32]bool{}
		for _, b := range batches {
			for _, m := range b {
				got[m.V] = true
			}
		}
		for from := 0; from < 3; from++ {
			if !got[uint32(from*10+to)] {
				t.Fatalf("endpoint %d missing message from %d (got %v)", to, from, got)
			}
		}
	}
}

func TestRPCMultipleRounds(t *testing.T) {
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for from := 0; from < 2; from++ {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				tr.Send(from, 1-from, []msg{{uint32(round), float64(from)}})
				tr.FinishRound(from)
			}(from)
		}
		wg.Wait()
		for to := 0; to < 2; to++ {
			bs := tr.Drain(to)
			if len(bs) != 1 || bs[0][0].V != uint32(round) {
				t.Fatalf("round %d endpoint %d: %v", round, to, bs)
			}
		}
	}
}

// TestRPCDrainsInSenderOrder: over sockets, as in process, batches drain by
// sender and then in send order, whatever order their frames arrive in —
// self-sends land at once, remote ones after a socket hop.
func TestRPCDrainsInSenderOrder(t *testing.T) {
	const n, to, per = 3, 1, 4
	tr, err := NewRPC[msg](n, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for from := n - 1; from >= 0; from-- {
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					tr.Send(from, to, []msg{{uint32(from), float64(i)}, {uint32(from), float64(i)}})
				}
				tr.FinishRound(from)
			}(from)
		}
		wg.Wait()
		for w := 0; w < n; w++ {
			if w == to {
				continue
			}
			if got := tr.Drain(w); len(got) != 0 {
				t.Fatalf("round %d: endpoint %d drained %v", round, w, got)
			}
		}
		got := tr.Drain(to)
		if len(got) != n*per {
			t.Fatalf("round %d: drained %d batches, want %d", round, len(got), n*per)
		}
		// Every message names its sender: each sent 2×per, none were lost
		// or duplicated, and they drain in (sender, send) order.
		perSender := make([]int, n)
		for i, b := range got {
			for _, m := range b {
				if m != (msg{uint32(i / per), float64(i % per)}) {
					t.Fatalf("round %d: batch %d holds %+v, out of (sender, send) order", round, i, m)
				}
				perSender[m.V]++
			}
		}
		for from, c := range perSender {
			if c != 2*per {
				t.Fatalf("round %d: %d messages from sender %d, want %d", round, c, from, 2*per)
			}
		}
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestMicroAllImplementationsCorrect(t *testing.T) {
	const total, senders = 20000, 5
	results := []MicroResult{
		MicroHama(total, senders),
		MicroPowerGraph(total, senders),
		MicroCyclops(total, senders),
	}
	for _, r := range results {
		if err := VerifyMicro(r); err != nil {
			t.Error(err)
		}
		if r.Total <= 0 {
			t.Errorf("%s: non-positive total", r.Impl)
		}
	}
	if results[2].Parse != 0 {
		t.Error("cyclops path must have no parse phase")
	}
}

func TestMicroOrdering(t *testing.T) {
	// The paper's Table 3 shape: Hama ≫ PowerGraph ≥ Cyclops. Use a large
	// enough run for the gob overhead to dominate noise.
	const total, senders = 200000, 5
	h := MicroHama(total, senders)
	p := MicroPowerGraph(total, senders)
	c := MicroCyclops(total, senders)
	if h.Total < p.Total*2 {
		t.Errorf("hama (%v) should be ≫ powergraph (%v)", h.Total, p.Total)
	}
	if c.Total > p.Total {
		t.Errorf("cyclops (%v) should not exceed powergraph (%v)", c.Total, p.Total)
	}
}

func TestRPCErrNilOnHealthyRun(t *testing.T) {
	tr, err := NewRPC[msg](2, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send(0, 1, []msg{{1, 1}})
	tr.FinishRound(0)
	tr.FinishRound(1)
	tr.Drain(0)
	tr.Drain(1)
	if tr.Err() != nil {
		t.Fatalf("unexpected transport error: %v", tr.Err())
	}
}

func TestNewFactory(t *testing.T) {
	l, err := New[msg](InProcess, 2, GlobalQueue, nil, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(*Local[msg]); !ok {
		t.Fatal("InProcess must build a Local transport")
	}
	r, err := New[msg](TCPLoopback, 2, GlobalQueue, nil, msgCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(*RPC[msg]); !ok {
		t.Fatal("TCPLoopback must build an RPC transport")
	}
	if _, err := New[msg](Network(99), 2, GlobalQueue, nil, msgCodec{}); err == nil {
		t.Fatal("unknown network must error")
	}
	for _, network := range []Network{InProcess, TCPLoopback} {
		if tr, err := New[msg](network, 2, GlobalQueue, nil, nil); err == nil {
			tr.Close()
			t.Fatalf("%v: a nil codec must be rejected — there is no second wire format", network)
		}
	}
	if InProcess.String() == "" || TCPLoopback.String() == "" || Network(99).String() == "" {
		t.Fatal("Network.String must render")
	}
}
