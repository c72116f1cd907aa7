package obs_test

// Store tests: the Log is the one book behind /comm, /spans, /mem, /heat, the
// -comm CSV, the -skew table and the Recorder's files, so everything the five
// per-feature trackers used to be tested for is asserted here against records
// fed the way the kernel feeds them — the views a StepRecord offers and each
// endpoint's envelope and ?format= set. The CSV formats' round trips are in
// csv_test.go; the mid-run behaviour under a real engine is in server_test.go.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// stepRecord builds a record for len(units) workers the way the kernel fills
// one: every per-worker row present, a millisecond of compute and of send per
// worker, no traffic unless the caller adds a Comm delta.
func stepRecord(step int, units, sent, recv, active []int64) *obs.StepRecord {
	n := len(units)
	ms := make([]time.Duration, n)
	for w := range ms {
		ms[w] = time.Millisecond
	}
	return &obs.StepRecord{
		Step: step, Stats: metrics.StepStats{Step: step},
		Units: units, Active: active, Sent: sent, Recv: recv,
		Sync: make([]int64, n),
		Spans: obs.StepSpanData{Run: 1, Step: step, Wall: 4 * time.Millisecond,
			Compute: ms, Send: ms, Units: units, Sent: sent, Recv: recv},
		Owner: func(int) int { return 0 },
	}
}

// TestSkewProfilerSingleWorker regresses the single-worker run: one worker's
// row per superstep must fold into finite 1.0 coefficients, not NaN from a
// one-element mean.
func TestSkewProfilerSingleWorker(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 1, Vertices: 4,
		WorkerReplicas: []int64{3}})
	l.OnSuperstep(stepRecord(0, []int64{9}, []int64{5}, []int64{5}, []int64{4}))
	l.OnRunEnd(obs.RunEnd{Reason: obs.ReasonHalt})

	rs := l.SkewReports()
	if len(rs) != 1 || len(rs[0].Steps) != 1 {
		t.Fatalf("reports = %+v, want one report with one step", rs)
	}
	st := rs[0].Steps[0]
	for name, v := range map[string]float64{
		"compute": st.Compute, "sent": st.Sent, "received": st.Received,
		"active": st.Active, "replicas": rs[0].Replicas,
	} {
		if v != 1 {
			t.Errorf("single-worker %s coefficient = %v, want 1", name, v)
		}
	}
}

// TestSkewProfilerZeroMessageStep regresses the zero-traffic superstep (e.g.
// the final all-halted step): sent/received sums of zero must report balanced,
// not divide by zero. A run in flight already has its partial report, and a
// second run files a second one.
func TestSkewProfilerZeroMessageStep(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "hama", Workers: 2, Vertices: 4})
	l.OnSuperstep(stepRecord(0, []int64{3, 3}, []int64{0, 0}, []int64{0, 0}, []int64{0, 0}))
	if rs := l.SkewReports(); len(rs) != 1 || len(rs[0].Steps) != 1 {
		t.Fatalf("mid-run reports = %+v, want the partial one", rs)
	}
	l.OnRunEnd(obs.RunEnd{Reason: obs.ReasonNoActive})

	rs := l.SkewReports()
	if len(rs) != 1 || len(rs[0].Steps) != 1 {
		t.Fatalf("reports = %+v, want one report with one step", rs)
	}
	st := rs[0].Steps[0]
	if st.Sent != 1 || st.Received != 1 || st.Active != 1 || st.Compute != 1 {
		t.Errorf("zero-message step coefficients = %+v, want all 1", st)
	}
	if rs[0].Replicas != 1 {
		t.Errorf("no replicated view: replica imbalance = %v, want 1", rs[0].Replicas)
	}
	if got := rs[0].String(); !strings.HasPrefix(got, "hama: 2 workers, 1 supersteps, ") {
		t.Errorf("summary line = %q", got)
	}

	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 2})
	l.OnSuperstep(stepRecord(0, []int64{10, 0}, []int64{1, 1}, []int64{1, 1}, []int64{1, 1}))
	l.OnRunEnd(obs.RunEnd{Reason: obs.ReasonHalt})
	rs = l.SkewReports()
	if len(rs) != 2 || rs[1].Engine != "cyclops" || rs[1].Steps[0].Compute != 2 {
		t.Fatalf("second run's report = %+v", rs)
	}
}

// TestMemTrackerAttribution drives the log through two supersteps with a
// deliberate allocation inside each and checks the telemetry: the allocation
// lands in its superstep's row (plus whatever background noise the runtime
// adds — the assertion is a lower bound, never exact), and /mem serves the
// run's totals once it is done.
func TestMemTrackerAttribution(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 2})

	var sink [][]byte
	for step := 0; step < 2; step++ {
		l.OnSuperstepStart(step)
		sink = append(sink, make([]byte, 1<<20))
		l.OnSuperstep(&obs.StepRecord{Step: step})
	}
	l.OnRunEnd(obs.RunEnd{Step: 1, Reason: obs.ReasonNoActive})
	_ = sink

	// /mem serves the rows: JSON envelope by default, the mem section with ?format=csv.
	rr := httptest.NewRecorder()
	l.ServeMem(rr, httptest.NewRequest("GET", "/mem", nil))
	var resp struct {
		Engine string        `json:"engine"`
		Done   bool          `json:"done"`
		Run    *obs.MemRun   `json:"run"`
		Steps  []obs.MemStep `json:"steps"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/mem JSON: %v", err)
	}
	if resp.Engine != "cyclops" || !resp.Done || len(resp.Steps) != 2 {
		t.Fatalf("/mem = engine %q done %v steps %d", resp.Engine, resp.Done, len(resp.Steps))
	}
	for i, s := range resp.Steps {
		if s.Step != i {
			t.Errorf("step %d recorded as %d", i, s.Step)
		}
		if s.AllocBytes < 1<<20 {
			t.Errorf("step %d: saw %d alloc bytes, want >= 1MiB", i, s.AllocBytes)
		}
		if s.HeapLive == 0 || s.HeapGoal == 0 {
			t.Errorf("step %d: instantaneous heap gauges empty: %+v", i, s)
		}
	}
	if r := resp.Run; r == nil || r.Allocs < 2 || r.AllocBytes < 2<<20 {
		t.Errorf("/mem run totals = %+v, want >= 2 allocs of >= 2MiB", r)
	}

	rr = httptest.NewRecorder()
	l.ServeMem(rr, httptest.NewRequest("GET", "/mem?format=csv", nil))
	if !strings.HasPrefix(rr.Body.String(), obs.MemCSVHeader+"\n") {
		t.Errorf("/mem?format=csv header = %q", strings.SplitN(rr.Body.String(), "\n", 2)[0])
	}
	parsed, err := obs.ParseMemCSV(rr.Body.Bytes())
	if err != nil || len(parsed) != 2 {
		t.Errorf("/mem?format=csv did not round-trip: %d steps, err %v", len(parsed), err)
	}

	// A new run resets the window; its totals wait for its end.
	l.OnRunStart(obs.RunInfo{Engine: "hama"})
	rr = httptest.NewRecorder()
	l.ServeMem(rr, httptest.NewRequest("GET", "/mem?format=csv", nil))
	if got := rr.Body.String(); got != obs.MemCSVHeader+"\n" {
		t.Errorf("steps survived OnRunStart:\n%s", got)
	}
	rr = httptest.NewRecorder()
	l.ServeMem(rr, httptest.NewRequest("GET", "/mem", nil))
	if strings.Contains(rr.Body.String(), `"run"`) {
		t.Errorf("/mem serves run totals mid-run:\n%s", rr.Body.String())
	}
}

// TestMetricsRuntimeGauges pins the process-level gauges: every scrape, even
// of a log no run has touched, exposes live goroutine and heap numbers.
func TestMetricsRuntimeGauges(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.NewLog().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_heap_sys_bytes"} {
		if !strings.Contains(out, "# TYPE "+name+" gauge") {
			t.Errorf("runtime metrics missing %s:\n%s", name, out)
		}
	}
	// The gauges evaluate at scrape time and a live process always has at
	// least one goroutine and a non-empty heap: no go_ sample may be zero.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "go_") && strings.HasSuffix(line, " 0") {
			t.Errorf("runtime gauge scraped as zero: %q", line)
		}
	}
}

// TestMetricsPerRunGaugesResetOnRunStart pins the signal the "cumulative over
// the latest run" egress/ingress gauges restart on: the run start — not
// superstep 0, which a restored engine's second Run never sees and a recovery
// that rewinds to it sees mid-run.
func TestMetricsPerRunGaugesResetOnRunStart(t *testing.T) {
	l := obs.NewLog()
	sample := func(line string) bool {
		var buf bytes.Buffer
		l.WriteMetrics(&buf)
		return strings.Contains(buf.String(), line+"\n")
	}
	step := func(n int) *obs.StepRecord {
		rec := stepRecord(n, []int64{1, 1}, []int64{5, 2}, []int64{3, 4}, []int64{1, 1})
		rec.Comm = transport.MatrixSnapshot{Workers: 2,
			Messages: [][]int64{{1, 4}, {2, 0}}, Wire: [][]int64{{37, 61}, {45, 0}}}
		return rec
	}

	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 2})
	l.OnSuperstep(step(0))
	// Superstep 1's barrier recovers to superstep 0: the replay adds to the
	// run's totals.
	faulty := step(1)
	faulty.Recovery = &obs.RecoveryEvent{Step: 1, ResumedAt: 0, Attempt: 1}
	l.OnSuperstep(faulty)
	l.OnSuperstep(step(0))
	if want := obs.MetricWorkerEgress + `{worker="0"} 15`; !sample(want) {
		t.Errorf("after a replay from superstep 0: no %q (three supersteps of 5)", want)
	}
	l.OnRunEnd(obs.RunEnd{Step: 2, Reason: obs.ReasonHalt})

	// A restored engine's second Run starts past superstep 0.
	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 2})
	l.OnSuperstep(step(7))
	for _, want := range []string{
		obs.MetricWorkerEgress + `{worker="0"} 5`,
		obs.MetricWorkerIngress + `{worker="1"} 4`,
		obs.MetricSupersteps + " 4", // the cross-run counters do not restart
		obs.MetricReplayedSupersteps + " 2",
	} {
		if !sample(want) {
			t.Errorf("second run starting at superstep 7: no %q", want)
		}
	}
}

// TestSuperstepGaugeResetsOnRunStart: between a run's start and its first
// superstep, the current-superstep gauge reads 0 like every other per-run
// gauge, not the previous run's last superstep.
func TestSuperstepGaugeResetsOnRunStart(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 1})
	for n := 0; n < 3; n++ {
		l.OnSuperstepStart(n)
		l.OnSuperstep(stepRecord(n, []int64{1}, []int64{0}, []int64{0}, []int64{1}))
	}
	l.OnRunEnd(obs.RunEnd{Step: 3, Reason: obs.ReasonHalt})
	l.OnRunStart(obs.RunInfo{Engine: "hama", Workers: 1})
	var buf bytes.Buffer
	l.WriteMetrics(&buf)
	if want := "\n" + obs.MetricSuperstep + " 0\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("after run 2's start, /metrics lacks %q:\n%s", strings.TrimSpace(want), buf.String())
	}
}

// BenchmarkPhaseSamplerOverhead measures one full superstep of observation
// (start + end, whose record files four phase durations; one runtime/metrics
// batch read, at the end). CI runs this to watch the observatory's cost: the budget is <2%
// of per-superstep model time at scale 0.25, i.e. the superstep must stay in
// the low microseconds. runtime/metrics reads take no stop-the-world pause,
// so the cost is pure CPU.
func BenchmarkPhaseSamplerOverhead(b *testing.B) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "bench"})
	rec := &obs.StepRecord{}
	rec.Stats.Durations = [4]time.Duration{time.Microsecond, time.Microsecond, time.Microsecond, time.Microsecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.OnSuperstepStart(i)
		l.OnSuperstep(rec)
	}
}

// feedLog pushes a small two-step run through the log the way the kernel
// does, then opens superstep 2 so the endpoint has something in flight.
func feedLog(t *testing.T) *obs.Log {
	t.Helper()
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Run: 1, Engine: "span-test", Workers: 2})

	// Step 0: worker 0 dominates the deterministic weights.
	l.OnSuperstepStart(0)
	l.OnSuperstep(stepRecord(0, []int64{10, 1}, []int64{5, 0}, []int64{0, 0}, []int64{1, 1}))
	// Step 1: worker 1 dominates.
	l.OnSuperstepStart(1)
	l.OnSuperstep(stepRecord(1, []int64{1, 20}, []int64{0, 2}, []int64{0, 5}, []int64{1, 1}))
	l.OnSuperstepStart(2)
	return l
}

func TestSpansEndpointJSON(t *testing.T) {
	l := feedLog(t)
	rr := httptest.NewRecorder()
	l.ServeSpans(rr, httptest.NewRequest("GET", "/spans", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /spans: %d", rr.Code)
	}
	var got struct {
		Run      int64           `json:"run"`
		Engine   string          `json:"engine"`
		Open     []span.Span     `json:"open"`
		CritPath []span.StepPath `json:"critpath"`
		Spans    []span.Span     `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("/spans is not JSON: %v", err)
	}
	if got.Run != 1 || got.Engine != "span-test" {
		t.Errorf("run %d engine %q, want 1 span-test", got.Run, got.Engine)
	}
	// The run span and the in-flight step-2 span are open.
	if len(got.Open) != 2 || got.Open[0].Kind != span.Run || got.Open[1].ID != span.StepID(2) {
		t.Errorf("open = %+v, want run span and step-2 span", got.Open)
	}
	if got, want := span.GatingSequence(got.CritPath), "0:0 1:1"; got != want {
		t.Errorf("live critical path = %q, want %q", got, want)
	}
	// Two closed supersteps of two workers: 2×4 + 1 spans each, every one
	// parented by a span of the stream or by the open run span, and worker
	// 0's step-0 send weighs its 5 messages.
	if len(got.Spans) != 2*(2*4+1) {
		t.Fatalf("%d completed spans, want %d", len(got.Spans), 2*(2*4+1))
	}
	ids := map[int64]bool{span.RunID(): true}
	for _, s := range got.Spans {
		ids[s.ID] = true
	}
	for _, s := range got.Spans {
		if !ids[s.Parent] {
			t.Errorf("span %+v: parent %#x is no span of the stream", s, s.Parent)
		}
		if s.ID == span.SendID(0, 0) && s.Msgs != 5 {
			t.Errorf("worker 0's step-0 send weighs %d messages, want 5", s.Msgs)
		}
	}

	// The run-end event closes both: nothing stays open, and the run span
	// joins the completed stream with the accounted wall.
	l.OnRunEnd(obs.RunEnd{Step: 2, Reason: obs.ReasonFault, Wall: 8 * time.Millisecond})
	rr = httptest.NewRecorder()
	l.ServeSpans(rr, httptest.NewRequest("GET", "/spans", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	last := got.Spans[len(got.Spans)-1]
	if len(got.Open) != 0 || last.Kind != span.Run || last.Run != 1 || last.Dur != 8*time.Millisecond {
		t.Errorf("after run end: open %+v, last span %+v", got.Open, last)
	}
}

func TestSpansEndpointStepFilterAndText(t *testing.T) {
	l := feedLog(t)

	rr := httptest.NewRecorder()
	l.ServeSpans(rr, httptest.NewRequest("GET", "/spans?step=1", nil))
	var got struct {
		Spans []span.Span `json:"spans"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) == 0 {
		t.Fatal("step filter returned nothing")
	}
	for _, s := range got.Spans {
		if s.Step != 1 {
			t.Errorf("?step=1 leaked a step-%d span", s.Step)
		}
	}

	rr = httptest.NewRecorder()
	l.ServeSpans(rr, httptest.NewRequest("GET", "/spans?format=text", nil))
	text := rr.Body.String()
	for _, want := range []string{"span-test", "superstep 0", "superstep 1", "compute", "open"} {
		if !strings.Contains(text, want) {
			t.Errorf("text waterfall missing %q:\n%s", want, text)
		}
	}

	rr = httptest.NewRecorder()
	l.ServeSpans(rr, httptest.NewRequest("GET", "/spans?step=banana", nil))
	if rr.Code != 400 {
		t.Errorf("bogus step filter answered %d, want 400", rr.Code)
	}
}

// TestLogCommViews pins the traffic views against known deltas: the cumulative
// matrix is their sum, the CSV lists exactly the cells with traffic in
// (step, from, to) order, and /comm renders both. Cell 1→0 carries only a
// round marker's wire bytes, as over TCP: it is traffic, so every view shows
// it, and the views' byte totals stay the transport's.
func TestLogCommViews(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "cyclops", Workers: 2})
	delta := transport.MatrixSnapshot{Workers: 2,
		Messages: [][]int64{{3, 7}, {0, 2}},
		Wire:     [][]int64{{30, 60}, {29, 20}}}
	for step := 0; step < 2; step++ {
		rec := stepRecord(step, []int64{1, 1}, []int64{10, 2}, []int64{3, 9}, []int64{1, 1})
		rec.Comm = delta
		l.OnSuperstep(rec)
	}
	// The record is the kernel's scratch: the log must not have kept it.
	delta.Messages[0][1], delta.Wire[0][1] = 999, 999

	cum := l.Cumulative()
	if cum.TotalMessages() != 24 || cum.TotalWireBytes() != 278 ||
		cum.Messages[0][1] != 14 {
		t.Errorf("cumulative = %+v", cum)
	}
	var csv bytes.Buffer
	if err := l.WriteCommCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := obs.CommCSVHeader + "\n" +
		"cyclops,2,0,0,0,3,30\ncyclops,2,0,0,1,7,60\ncyclops,2,0,1,0,0,29\ncyclops,2,0,1,1,2,20\n" +
		"cyclops,2,1,0,0,3,30\ncyclops,2,1,0,1,7,60\ncyclops,2,1,1,0,0,29\ncyclops,2,1,1,1,2,20\n"
	if csv.String() != want {
		t.Errorf("comm CSV:\n%s\nwant:\n%s", csv.String(), want)
	}

	rr := httptest.NewRecorder()
	l.ServeComm(rr, httptest.NewRequest("GET", "/comm", nil))
	var doc struct {
		Supersteps  int     `json:"supersteps"`
		Total       int64   `json:"messages_total"`
		Egress      []int64 `json:"egress_messages"`
		Ingress     []int64 `json:"ingress_messages"`
		Wire        int64   `json:"wire_bytes_total"`
		EgressWire  []int64 `json:"egress_wire_bytes"`
		IngressWire []int64 `json:"ingress_wire_bytes"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Supersteps != 2 || doc.Total != 24 || !reflect.DeepEqual(doc.Egress, []int64{20, 4}) ||
		!reflect.DeepEqual(doc.Ingress, []int64{6, 18}) || doc.Wire != 278 ||
		!reflect.DeepEqual(doc.EgressWire, []int64{180, 98}) || !reflect.DeepEqual(doc.IngressWire, []int64{118, 160}) {
		t.Errorf("/comm = %+v", doc)
	}
	rr = httptest.NewRecorder()
	l.ServeComm(rr, httptest.NewRequest("GET", "/comm?format=csv", nil))
	if rr.Body.String() != want {
		t.Errorf("/comm?format=csv:\n%s", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	l.ServeComm(rr, httptest.NewRequest("GET", "/comm?format=prom", nil))
	if prom := rr.Body.String(); !strings.Contains(prom, obs.MetricCommMessages+`{from="0",to="1"} 14`) ||
		strings.Contains(prom, obs.MetricCommMessages+`{from="1",to="0"}`) ||
		!strings.Contains(prom, obs.MetricCommWireBytes+`{from="1",to="0"} 58`) {
		t.Errorf("/comm?format=prom:\n%s", prom)
	}
}

// TestTopHotVerticesDeterministicUnderTies pins the hot-set order: Msgs
// descending, vertex id ascending on ties — a total order, so the same
// counters always produce the same set regardless of scan pattern.
func TestTopHotVerticesDeterministicUnderTies(t *testing.T) {
	// Vertices 1, 3, 5 tie at 10 msgs; 2 and 4 tie at 20; 0 and 6 are cold.
	msgs := []int64{0, 10, 20, 10, 20, 10, 0}
	units := []int64{0, 1, 2, 3, 4, 5, 0}
	owner := func(v int) int { return v % 2 }

	want := []obs.HotVertex{
		{Vertex: 2, Worker: 0, Msgs: 20, Units: 2},
		{Vertex: 4, Worker: 0, Msgs: 20, Units: 4},
		{Vertex: 1, Worker: 1, Msgs: 10, Units: 1},
		{Vertex: 3, Worker: 1, Msgs: 10, Units: 3},
	}
	got := obs.TopHotVertices(msgs, units, owner, 4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("top-4 under ties:\ngot  %+v\nwant %+v", got, want)
	}

	// Truncation cuts inside the tie group deterministically: vertex 3 (tied
	// with 1 and 5 at 10) is excluded by its larger id, never by scan order.
	got3 := obs.TopHotVertices(msgs, units, owner, 3)
	if !reflect.DeepEqual(got3, want[:3]) {
		t.Errorf("top-3 under ties:\ngot  %+v\nwant %+v", got3, want[:3])
	}

	// A vertex with compute but no messages still qualifies (sorted last);
	// k larger than the qualifying set yields a shorter slice.
	all := obs.TopHotVertices([]int64{0, 0}, []int64{0, 9}, owner, 16)
	if len(all) != 1 || all[0].Vertex != 1 || all[0].Units != 9 {
		t.Errorf("compute-only vertex: %+v", all)
	}
	if got := obs.TopHotVertices(nil, nil, owner, 16); len(got) != 0 {
		t.Errorf("empty counters produced a hot set: %+v", got)
	}

	// The record's Hot view is the same scan at DefaultHotK.
	rec := &obs.StepRecord{HeatMsgs: msgs, HeatUnits: units, Owner: owner}
	if got := rec.Hot(); !reflect.DeepEqual(got[:4], want) || len(got) != 5 {
		t.Errorf("StepRecord.Hot = %+v", got)
	}
}

// TestBuildHeatPartitions pins the interior/boundary split against a known
// traffic matrix: the diagonal is interior, row sums minus the diagonal are
// out-boundary, column sums minus the diagonal in-boundary.
func TestBuildHeatPartitions(t *testing.T) {
	rec := &obs.StepRecord{Step: 5,
		Comm: transport.MatrixSnapshot{Workers: 2, Messages: [][]int64{
			{3, 7},
			{4, 2},
		}},
		Active: []int64{10, 20}, Units: []int64{100, 200}, Sync: []int64{7, 4}}
	want := []obs.HeatPartition{
		{Step: 5, Worker: 0, Active: 10, ComputeUnits: 100, OutInterior: 3,
			OutBoundary: 7, InInterior: 3, InBoundary: 4, ReplicaSync: 7},
		{Step: 5, Worker: 1, Active: 20, ComputeUnits: 200, OutInterior: 2,
			OutBoundary: 4, InInterior: 2, InBoundary: 7, ReplicaSync: 4},
	}
	if rows := rec.AppendHeat(nil); !reflect.DeepEqual(rows, want) {
		t.Errorf("rows:\ngot  %+v\nwant %+v", rows, want)
	}
	// It appends: earlier supersteps' rows stay in front.
	if rows := rec.AppendHeat(want[:1:1]); len(rows) != 3 || rows[0] != want[0] || rows[2] != want[1] {
		t.Errorf("appended rows: %+v", rows)
	}

	// nil sync (no replicated view) leaves the column zero.
	rec.Sync = nil
	for _, r := range rec.AppendHeat(nil) {
		if r.ReplicaSync != 0 {
			t.Errorf("worker %d: replica_sync = %d without a replicated view", r.Worker, r.ReplicaSync)
		}
	}
}

// TestLogHeatEndpoint: /heat serves the rows the records produced and, after
// the run, the final hot set the run-end event brought — in all three formats.
func TestLogHeatEndpoint(t *testing.T) {
	l := obs.NewLog()
	l.OnRunStart(obs.RunInfo{Engine: "hama", Workers: 2})
	rec := stepRecord(0, []int64{12, 9}, []int64{10, 6}, []int64{7, 9}, []int64{5, 4})
	rec.HeatMsgs, rec.HeatUnits = []int64{4, 0, 9}, []int64{1, 0, 2}
	l.OnSuperstep(rec)

	var doc struct {
		Engine     string              `json:"engine"`
		Done       bool                `json:"done"`
		Partitions []obs.HeatPartition `json:"partitions"`
		Hot        []obs.HotVertex     `json:"hot"`
	}
	get := func(query string) []byte {
		rr := httptest.NewRecorder()
		l.ServeHeat(rr, httptest.NewRequest("GET", "/heat"+query, nil))
		if rr.Code != 200 {
			t.Fatalf("GET /heat%s: %d", query, rr.Code)
		}
		return rr.Body.Bytes()
	}
	// Mid-run: the first barrier evaluated the record's Hot view.
	if err := json.Unmarshal(get(""), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Engine != "hama" || doc.Done || len(doc.Partitions) != 2 || doc.Partitions[0].ComputeUnits != 12 ||
		len(doc.Hot) != 2 || doc.Hot[0].Vertex != 2 {
		t.Errorf("mid-run /heat = %+v", doc)
	}
	if got := l.Rows(); !reflect.DeepEqual(got, doc.Partitions) {
		t.Errorf("Rows() = %+v", got)
	}

	final := []obs.HotVertex{{Vertex: 2, Worker: 0, Msgs: 11, Units: 3}}
	l.OnRunEnd(obs.RunEnd{Step: 1, Reason: obs.ReasonNoActive, Hot: final})
	if err := json.Unmarshal(get(""), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Done || !reflect.DeepEqual(doc.Hot, final) {
		t.Errorf("post-run /heat = %+v", doc)
	}
	if rows, err := obs.ParseHeatCSV(get("?format=csv")); err != nil || !reflect.DeepEqual(rows, doc.Partitions) {
		t.Errorf("/heat?format=csv: %+v, err %v", rows, err)
	}
	if hot, err := obs.ParseHotsetCSV(get("?format=hotcsv")); err != nil || !reflect.DeepEqual(hot, final) {
		t.Errorf("/heat?format=hotcsv: %+v, err %v", hot, err)
	}
}
