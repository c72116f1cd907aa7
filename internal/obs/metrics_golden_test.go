package obs_test

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// goRuntimeSample matches the three process gauges, the only /metrics samples
// whose value the script below does not determine.
var goRuntimeSample = regexp.MustCompile(`(?m)^(go_[a-z_]+) .*$`)

// TestMetricsGolden pins the whole /metrics body — series names, types, HELP
// text, label and family order, cumulative-across-runs counters, per-run
// gauges restarting at OnRunStart — over a fixed script of two back-to-back
// runs with one recovery and one audit violation, scraped after the first
// run, in the middle of the second and after it. The golden file was recorded
// through -debug-addr's own wiring (obs.Setup) before /metrics became a render
// over the Log, so it holds the endpoint to what it served then.
func TestMetricsGolden(t *testing.T) {
	var stderr bytes.Buffer
	sess, err := obs.Setup(obs.Options{Prog: "golden", Stderr: &stderr, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	url := strings.TrimSpace(strings.TrimPrefix(stderr.String(), "golden: diagnostics at "))
	h := sess.Hooks

	var got strings.Builder
	scrape := func(title string) {
		body := goRuntimeSample.ReplaceAllString(get(t, url+"/metrics", "text/plain"), "$1 <wall-clock>")
		got.WriteString("=== " + title + " ===\n" + body)
	}
	phases := func(step int, ds ...time.Duration) {
		for p, d := range ds {
			h.OnPhase(step, metrics.Phase(p), d)
		}
	}
	// step is one barrier of a three-worker run: worker 0 sends 4 messages to
	// itself and 6 + 2 across the cut, worker 1 sends 3 to worker 0, worker 2
	// is idle; scale multiplies the traffic so the runs differ.
	step := func(n int, scale int64, parse bool) *obs.StepRecord {
		rec := stepRecord(n, []int64{30 * scale, 10 * scale, 0}, []int64{12 * scale, 3 * scale, 0},
			[]int64{7 * scale, 6 * scale, 2 * scale}, []int64{20, 10, 0})
		rec.Stats.Active, rec.Stats.Changed = 30, 25-int64(n)
		rec.Stats.Messages, rec.Stats.RedundantMessages = 15*scale, scale
		rec.Sync = []int64{5 * scale, 2 * scale, 0}
		rec.Comm = transport.MatrixSnapshot{Workers: 3,
			Messages: [][]int64{{4 * scale, 6 * scale, 2 * scale}, {3 * scale, 0, 0}, {0, 0, 0}},
			Wire:     [][]int64{{32 * scale, 48 * scale, 16 * scale}, {24 * scale, 0, 0}, {0, 0, 0}}}
		rec.Spans.Deliveries[0] = []span.Delivery{{From: 1, Msgs: 3 * scale}}
		if parse {
			rec.Spans.Parse = []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond}
		}
		return rec
	}

	// Run 1: cyclops, faulted at superstep 1, rolled back to 0, replayed, then
	// failed by the auditor at superstep 2.
	h.OnRunStart(obs.RunInfo{Run: 1, Engine: "cyclops", Workers: 3, Vertices: 100, Edges: 400,
		Replicas: 250, WorkerReplicas: []int64{100, 90, 60}})
	for _, n := range []int{0, 1} {
		h.OnSuperstepStart(n)
		phases(n, 0, 2*time.Millisecond, 300*time.Microsecond, 30*time.Millisecond)
		h.OnSuperstep(step(n, 1, false))
	}
	h.OnRecovery(obs.RecoveryEvent{Engine: "cyclops", Step: 1, ResumedAt: 0, Attempt: 1, Cause: "injected"})
	for _, n := range []int{0, 1, 2} {
		h.OnSuperstepStart(n)
		phases(n, 0, 5*time.Millisecond, 50*time.Microsecond, 2*time.Second)
		rec := step(n, 1, false)
		if n == 2 {
			rec.Violations = []obs.Violation{
				{Engine: "cyclops", Step: 2, Worker: 1, Vertex: 7, Kind: obs.ViolationReplicaDesync},
				{Engine: "cyclops", Step: 2, Worker: 2, Vertex: 9, Kind: obs.ViolationDoubleDelivery},
				{Engine: "cyclops", Step: 2, Worker: 2, Vertex: 11, Kind: obs.ViolationReplicaDesync}}
		}
		h.OnSuperstep(rec)
	}
	h.OnRunEnd(obs.RunEnd{Step: 3, Reason: obs.ReasonAuditFailed, Wall: 6 * time.Second})
	scrape("after run 1")

	// Run 2: hama (a parse phase, no replicas), scraped with superstep 1 open.
	h.OnRunStart(obs.RunInfo{Run: 1, Engine: "hama", Workers: 3, Vertices: 100, Edges: 400})
	h.OnSuperstepStart(0)
	phases(0, 700*time.Microsecond, 8*time.Millisecond, 90*time.Microsecond, 150*time.Millisecond)
	h.OnSuperstep(step(0, 1000, true))
	h.OnSuperstepStart(1)
	scrape("run 2, superstep 1 in flight")
	phases(1, 700*time.Microsecond, 8*time.Millisecond, 90*time.Microsecond, 200*time.Second)
	h.OnSuperstep(step(1, 100000, true))
	h.OnRunEnd(obs.RunEnd{Step: 2, Reason: obs.ReasonHalt, Wall: 201 * time.Second})
	scrape("after run 2")

	const golden = "testdata/metrics.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("/metrics differs from %s at: %s", golden, firstDiffLine([]byte(got.String()), want))
	}
}
