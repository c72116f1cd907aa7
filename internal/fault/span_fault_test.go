package fault_test

// Delivery provenance under fault injection, read from the drained batches
// themselves: every payload names its sender. A dropped connection loses the
// batch and leaves no phantom in the receiver's drain; after Reset + resend
// (what the engines do on recovery) the drain holds exactly the surviving
// and resending senders' batches. Both real transports (in-process and TCP
// loopback) honour the contract, and a full seeded fault plan replays to
// byte-identical drains. Per-pair message counts are the transport Matrix's
// to book, at send time; the kernel only books what a drain returned.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cyclops/internal/fault"
	"cyclops/internal/graph"
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
// every worker, then a drain of `to`, returning a copy of its batches.
func roundTrip(tr transport.Interface[int64], n, to int, send func()) [][]int64 {
	send()
	for w := 0; w < n; w++ {
		tr.FinishRound(w)
	}
	var got [][]int64
	for _, b := range tr.Drain(to) {
		got = append(got, slices.Clone(b))
	}
	return got
}

// payload is a batch that names its sender: 100×sender + i for i < n.
func payload(sender, n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = int64(100*sender + i)
	}
	return b
}

func TestDropDoesNotOrphanReceiverSpans(t *testing.T) {
	for _, network := range spanNetworks {
		t.Run(network.String(), func(t *testing.T) {
			const n = 3
			inj := fault.Wrap(newNet(t, network, n), fault.Plan{Faults: []fault.Fault{
				{Kind: fault.Drop, Step: 1, Worker: 0, Peer: 1},
			}})

			both := [][]int64{payload(0, 2), payload(2, 1)}
			send := func() {
				inj.Send(0, 1, payload(0, 2))
				inj.Send(2, 1, payload(2, 1))
			}

			// Step 0, fault-free: both senders' batches arrive.
			inj.BeginStep(0)
			if got := roundTrip(inj, n, 1, send); !reflect.DeepEqual(got, both) {
				t.Fatalf("clean round drained %v, want %v", got, both)
			}

			// Step 1: the 0→1 connection drops. The receiver's round resolves
			// with only the surviving sender's batch — no phantom from the
			// dead connection.
			inj.BeginStep(1)
			if got := roundTrip(inj, n, 1, send); !reflect.DeepEqual(got, both[1:]) {
				t.Fatalf("dropped round drained %v, want only %v", got, both[1:])
			}
			if err := inj.Err(); err == nil || !transport.IsTransient(err) {
				t.Fatalf("drop must surface as a transient error, got %v", err)
			}

			// Reset and replay the superstep, as the recovery path does: the
			// replayed sender's batch arrives beside the survivor's.
			if err := inj.Reset(); err != nil {
				t.Fatal(err)
			}
			inj.BeginStep(1)
			if got := roundTrip(inj, n, 1, send); !reflect.DeepEqual(got, both) {
				t.Fatalf("replayed round drained %v, want %v", got, both)
			}
			if inj.Err() != nil {
				t.Fatalf("reset injector still errors: %v", inj.Err())
			}
		})
	}
}

// TestSpanProvenanceSeedReplayable drives a fixed send script through a full
// seeded fault plan twice, on each transport, and requires byte-identical
// drains: which batches arrived, from whom (each payload names its sender)
// and what they held. This is the property that makes chaos-run records
// diffable.
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
				inj.Send(w, (w+1)%n, payload(w, w+1))
				inj.Send(w, (w+2)%n, payload(w, 1))
			}
			for w := 0; w < n; w++ {
				inj.FinishRound(w)
			}
			for w := 0; w < n; w++ {
				for _, b := range inj.Drain(w) {
					fmt.Fprintf(&log, "s%d w%d <- %v\n", step, w, b)
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
				t.Error("nothing drained — script never exercised the transport")
			}
		})
	}
}
