package obs_test

import (
	"bytes"
	"os"
	"regexp"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs"
)

// narrationTime and narrationElapsed match the two values of a narration line
// that the script below does not determine: the time key, removed, and the
// run's elapsed wall time, masked.
var (
	narrationTime    = regexp.MustCompile(`"time":"[^"]*",`)
	narrationElapsed = regexp.MustCompile(`"elapsed_ns":[0-9]+`)
)

// TestNarrationGolden pins every line -verbose prints — event kinds, keys and
// their order, levels, and the order of events within a superstep — over a
// fixed script of two runs: a cyclops run with a recovery, two slow phases in
// one replayed superstep, and an audit failure; then a hama run whose phase
// history starts afresh. Each superstep's record starts its phases in its
// engine's call order, as the kernel's start offsets do. The golden file was
// recorded through obs.Setup before the narration became a render over the
// Log; after each run, /trace must render the lines just printed.
func TestNarrationGolden(t *testing.T) {
	var stderr bytes.Buffer
	sess, err := obs.Setup(obs.Options{Prog: "golden", Stderr: &stderr, Verbose: true, SlowPhase: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	h := sess.Hooks

	cyclopsOrder := []metrics.Phase{metrics.Compute, metrics.Send, metrics.Parse, metrics.Sync}
	hamaOrder := []metrics.Phase{metrics.Parse, metrics.Compute, metrics.Send, metrics.Sync}
	var recovery *obs.RecoveryEvent // carried by the next superstep's record
	superstep := func(n int, order []metrics.Phase, prs, cmp, snd, syn time.Duration, vs ...obs.Violation) {
		h.OnSuperstepStart(n)
		rec := stepRecord(n, []int64{30, 10, 0}, []int64{12, 3, 0}, []int64{7, 6, 2}, []int64{20, 10, 0})
		rec.Stats.Durations = [4]time.Duration{prs, cmp, snd, syn}
		rec.Stats.Active, rec.Stats.Changed = 30-int64(n), 25-int64(n)
		rec.Stats.Messages, rec.Stats.RedundantMessages = 15+int64(n), int64(n%3)
		rec.Violations, rec.Recovery, recovery = vs, recovery, nil
		// Each phase starts where the one before it in the engine's order ends.
		var at time.Duration
		starts := [...]*time.Duration{&rec.Spans.ParseStart, &rec.Spans.ComputeStart, &rec.Spans.SendStart}
		for _, p := range order[:len(order)-1] {
			*starts[p] = at
			at += rec.Stats.Durations[p]
		}
		h.OnSuperstep(rec)
	}
	const ms, us = time.Millisecond, time.Microsecond
	// traceIsNarration checks that /trace, rendered from the log's rows, is
	// byte for byte what stderr holds from offset from on — the latest run's
	// -verbose lines, times included.
	traceIsNarration := func(run, from int) {
		var trace bytes.Buffer
		if err := sess.Log.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if printed := stderr.Bytes()[from:]; !bytes.Equal(trace.Bytes(), printed) {
			t.Errorf("/trace differs from run %d's narration at: %s", run, firstDiffLine(trace.Bytes(), printed))
		}
	}

	// Run 1: cyclops. Six steady supersteps, a fault at superstep 5 rolled
	// back to 4; the replayed superstep 5 is 10× slow in CMP and PRS (CMP is
	// called first); superstep 6 is 5× slow in SYN and fails the audit.
	h.OnRunStart(obs.RunInfo{Run: 1, Engine: "cyclops", Workers: 3, Vertices: 100, Edges: 400,
		Replicas: 250, WorkerReplicas: []int64{100, 90, 60}})
	for n := 0; n < 6; n++ {
		if n == 5 {
			recovery = &obs.RecoveryEvent{Engine: "cyclops", Step: 5, ResumedAt: 4, Attempt: 1, Cause: "injected"}
		}
		superstep(n, cyclopsOrder, 100*us, 2*ms, 300*us, ms)
	}
	superstep(4, cyclopsOrder, 100*us, 2*ms, 300*us, ms)
	superstep(5, cyclopsOrder, ms, 20*ms, 300*us, ms)
	superstep(6, cyclopsOrder, 100*us, 2*ms, 300*us, 5*ms,
		obs.Violation{Engine: "cyclops", Step: 6, Worker: 1, Vertex: 7, Kind: obs.ViolationReplicaDesync, Detail: "view 0.5, master 0.25"},
		obs.Violation{Engine: "cyclops", Step: 6, Worker: 2, Vertex: 9, Kind: obs.ViolationDoubleDelivery, Detail: "2 messages"})
	h.OnRunEnd(obs.RunEnd{Step: 6, Reason: obs.ReasonAuditFailed, Wall: 40 * ms})
	traceIsNarration(1, 0)
	run2 := stderr.Len()

	// Run 2: hama. Its first superstep is far slower than anything run 1 saw
	// and still warm-up; superstep 5 is about 4× slow in SND.
	h.OnRunStart(obs.RunInfo{Run: 1, Engine: "hama", Workers: 3, Vertices: 100, Edges: 400})
	superstep(0, hamaOrder, 50*ms, 80*ms, 9*ms, 3*ms)
	for n := 1; n < 5; n++ {
		superstep(n, hamaOrder, 700*us, 8*ms, 900*us, 3*ms)
	}
	superstep(5, hamaOrder, 700*us, 8*ms, 10*ms, 3*ms)
	h.OnRunEnd(obs.RunEnd{Step: 6, Reason: obs.ReasonHalt, Wall: 200 * ms})
	traceIsNarration(2, run2)

	got := narrationElapsed.ReplaceAll(narrationTime.ReplaceAll(stderr.Bytes(), nil), []byte(`"elapsed_ns":"<wall-clock>"`))
	const golden = "testdata/narration.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("narration differs from %s at: %s", golden, firstDiffLine(got, want))
	}
}
