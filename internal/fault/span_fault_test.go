package fault_test

// Delivery provenance under fault injection. A dropped connection loses the
// batch but must not orphan receiver spans: the round's LastDeliveries simply
// omits the dead sender, and after Reset + resend (what the engines do on
// recovery) it names exactly the surviving and resending senders with their
// message counts. Both real transports (in-process and TCP loopback) honour
// the contract, and a full seeded fault plan replays to byte-identical
// delivery provenance. Which superstep a delivery belongs to is the kernel's
// to decide (superstep.Kernel), not the wire's.

import (
	"fmt"
	"slices"
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

			both := []span.Delivery{{From: 0, Msgs: 2}, {From: 2, Msgs: 1}}
			send := func() {
				inj.Send(0, 1, []int64{4, 5})
				inj.Send(2, 1, []int64{6})
			}

			// Step 0, fault-free: both senders' batches resolve.
			inj.BeginStep(0)
			if ds := roundTrip(inj, n, 1, send); !slices.Equal(ds, both) {
				t.Fatalf("clean round deliveries = %+v, want %+v", ds, both)
			}

			// Step 1: the 0→1 connection drops. The receiver's round resolves
			// with only the surviving sender — no phantom delivery from the
			// dead connection.
			inj.BeginStep(1)
			if ds := roundTrip(inj, n, 1, send); !slices.Equal(ds, both[1:]) {
				t.Fatalf("dropped round deliveries = %+v, want only %+v", ds, both[1:])
			}
			if err := inj.Err(); err == nil || !transport.IsTransient(err) {
				t.Fatalf("drop must surface as a transient error, got %v", err)
			}

			// Reset and replay the superstep, as the recovery path does: the
			// replayed sender's batch resolves beside the survivor's.
			if err := inj.Reset(); err != nil {
				t.Fatal(err)
			}
			inj.BeginStep(1)
			if ds := roundTrip(inj, n, 1, send); !slices.Equal(ds, both) {
				t.Fatalf("replayed round deliveries = %+v, want %+v", ds, both)
			}
			if inj.Err() != nil {
				t.Fatalf("reset injector still errors: %v", inj.Err())
			}
		})
	}
}

// TestSpanProvenanceSeedReplayable drives a fixed send script through a full
// seeded fault plan twice, on each transport, and requires byte-identical
// delivery provenance: which batches arrived, from whom, how many messages.
// This is the property that makes chaos-run span records diffable.
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
					fmt.Fprintf(&log, "s%d w%d<-%d x%d\n", step, w, d.From, d.Msgs)
				}
			}
			if inj.Err() != nil {
				// Recover like the engines: reset, keep going.
				if err := inj.Reset(); err != nil {
					t.Fatal(err)
				}
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
