package fault_test

// Span propagation under fault injection. A dropped connection loses the
// batch but must not orphan receiver spans: the round's LastDeliveries simply
// omits the dead sender, and after Heal + resend (what the engines do on
// recovery) the reconnected sender's deliveries resolve with the replayed
// step's span context — never a stale tag from before the fault. Both real
// transports (in-process and TCP loopback) honour the contract, and a full
// seeded fault plan replays to byte-identical delivery provenance.

import (
	"fmt"
	"strings"
	"testing"

	"cyclops/internal/fault"
	"cyclops/internal/graph"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// spanNetworks are the transports under test, by the Network selector.
var spanNetworks = []transport.Network{transport.InProcess, transport.TCPLoopback}

func newNet(t *testing.T, network transport.Network, n int) transport.Interface[int64] {
	t.Helper()
	tr, err := transport.New[int64](network, n, transport.PerSenderQueue, nil, graph.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// tagAll stamps every worker with the given step's span context, as the
// engine coordinators do between barriers.
func tagAll(tr transport.Interface[int64], n, step int) {
	for w := 0; w < n; w++ {
		tr.Tag(w, span.Context{Run: 1, Step: int32(step), Worker: int32(w)})
	}
}

// roundTrip runs one complete round: the given sends, round markers from
// every worker, then a drain of `to`, returning its delivery provenance.
func roundTrip(tr transport.Interface[int64], n, to int, send func()) []span.Delivery {
	send()
	for w := 0; w < n; w++ {
		tr.FinishRound(w)
	}
	tr.Drain(to)
	return tr.LastDeliveries(to)
}

func TestDropDoesNotOrphanReceiverSpans(t *testing.T) {
	for _, network := range spanNetworks {
		t.Run(network.String(), func(t *testing.T) {
			const n = 3
			inj := fault.Wrap(newNet(t, network, n), fault.Plan{Faults: []fault.Fault{
				{Kind: fault.Drop, Step: 1, Worker: 0, Peer: 1},
			}})

			// Step 0, fault-free: both senders' batches resolve to their
			// current span contexts.
			inj.BeginStep(0)
			tagAll(inj, n, 0)
			ds := roundTrip(inj, n, 1, func() {
				inj.Send(0, 1, []int64{1, 2})
				inj.Send(2, 1, []int64{3})
			})
			if len(ds) != 2 || ds[0].From != 0 || ds[1].From != 2 {
				t.Fatalf("clean round deliveries = %+v, want senders 0 and 2", ds)
			}
			for _, d := range ds {
				if !d.Ctx.Tagged() || d.Ctx.Step != 0 || d.Ctx.Worker != int32(d.From) {
					t.Fatalf("clean round carried wrong context: %+v", d)
				}
			}

			// Step 1: the 0→1 connection drops. The receiver's round resolves
			// with only the surviving sender — no phantom delivery, no
			// unmatched span context from the dead connection.
			inj.BeginStep(1)
			tagAll(inj, n, 1)
			ds = roundTrip(inj, n, 1, func() {
				inj.Send(0, 1, []int64{4, 5})
				inj.Send(2, 1, []int64{6})
			})
			if len(ds) != 1 || ds[0].From != 2 || ds[0].Ctx.Step != 1 {
				t.Fatalf("dropped round deliveries = %+v, want only sender 2 at step 1", ds)
			}
			if err := inj.Err(); err == nil || !transport.IsTransient(err) {
				t.Fatalf("drop must surface as a transient error, got %v", err)
			}

			// Heal and replay the superstep, as the recovery path does. The
			// reconnected sender resends under the replayed step's tag; its
			// deliveries resolve and carry that tag — not the pre-fault one.
			inj.Heal()
			inj.BeginStep(1)
			tagAll(inj, n, 1)
			ds = roundTrip(inj, n, 1, func() {
				inj.Send(0, 1, []int64{4, 5})
				inj.Send(2, 1, []int64{6})
			})
			if len(ds) != 2 {
				t.Fatalf("replayed round deliveries = %+v, want both senders back", ds)
			}
			for _, d := range ds {
				if !d.Ctx.Tagged() || d.Ctx.Step != 1 || d.Ctx.Worker != int32(d.From) {
					t.Fatalf("replayed round carried stale context: %+v", d)
				}
			}
			if ds[0].Msgs != 2 || ds[1].Msgs != 1 {
				t.Fatalf("replayed round message counts = %+v", ds)
			}
			if inj.Err() != nil {
				t.Fatalf("healed injector still errors: %v", inj.Err())
			}
		})
	}
}

// TestSpanProvenanceSeedReplayable drives a fixed send script through a full
// seeded fault plan twice, on each transport, and requires byte-identical
// delivery provenance: which batches arrived, from whom, under which span
// context. This is the property that makes chaos-run span records diffable.
func TestSpanProvenanceSeedReplayable(t *testing.T) {
	const (
		n     = 4
		steps = 5
		seed  = 42
	)
	script := func(network transport.Network) string {
		t.Helper()
		inj := fault.Wrap(newNet(t, network, n), fault.NewPlan(seed, n, 1, 3, 6))
		var log strings.Builder
		for step := 0; step < steps; step++ {
			inj.BeginStep(step)
			tagAll(inj, n, step)
			// Each worker sends to its two neighbours; payload size varies by
			// sender so corrupt-truncations change counts observably.
			for w := 0; w < n; w++ {
				inj.Send(w, (w+1)%n, make([]int64, w+1))
				inj.Send(w, (w+2)%n, make([]int64, 1))
			}
			for w := 0; w < n; w++ {
				inj.FinishRound(w)
			}
			for w := 0; w < n; w++ {
				inj.Drain(w)
				for _, d := range inj.LastDeliveries(w) {
					fmt.Fprintf(&log, "s%d w%d<-%d ctx{%d,%d,%d} x%d\n",
						step, w, d.From, d.Ctx.Run, d.Ctx.Step, d.Ctx.Worker, d.Msgs)
				}
			}
			if inj.Err() != nil {
				inj.Heal() // recover like the engines: heal, keep going
			}
		}
		return log.String()
	}

	for _, network := range spanNetworks {
		t.Run(network.String(), func(t *testing.T) {
			a, b := script(network), script(network)
			if a != b {
				t.Errorf("same-seed fault replays diverged:\nA:\n%s\nB:\n%s", a, b)
			}
			if a == "" {
				t.Error("no deliveries recorded — script never exercised the transport")
			}
		})
	}
}
