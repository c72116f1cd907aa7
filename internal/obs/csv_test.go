package obs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// intTable writes a parsed integer table back out, the re-encoder of the
// files that have no typed writer of their own (timings.csv).
func intTable(header string, rows [][]int64) []byte {
	b := newCSV(header, len(rows))
	for _, r := range rows {
		b = endRow(ints(b, r...))
	}
	return b
}

// timingsLog is a Log holding n supersteps' stats and walls.
func timingsLog(n int) *Log {
	l := NewLog()
	for i := range n {
		s := metrics.StepStats{Step: i, Active: int64(1000 + i), Messages: int64(7 * i),
			ResidualN: 3, ResidualP50: 0.125, ResidualMax: 1e-9 * float64(i), ModelNanos: 12345.678}
		s.Durations[metrics.Parse] = time.Duration(100 + i)
		s.Durations[metrics.Compute] = 2500 * time.Microsecond
		s.Durations[metrics.Send] = time.Duration(31 * i)
		s.Durations[metrics.Sync] = time.Millisecond
		l.stats = append(l.stats, s)
		l.steps = append(l.steps, logStep{wall: 4 * time.Millisecond, wire: int64(1 << 20),
			skew: SkewStep{Compute: 1.5, Sent: 1.0 / 3}})
	}
	l.info = RunInfo{Engine: "cyclops", Workers: 4, Replicas: 123456, ReplicaValueBytes: 987654}
	return l
}

// TestCSVRoundTrip pins every readable file's Encode/Parse contract: the
// sample rows survive the round trip unchanged, re-encoding what the reader
// returned yields the identical bytes (the property the byte-identity of
// heat.csv and hotset.csv is built on), an empty file round-trips too, and
// the reader refuses anything the writer would not write.
func TestCSVRoundTrip(t *testing.T) {
	memSteps := []MemStep{
		{Step: 0, AllocBytes: 2485, GCCycles: 2, GCPauseNs: 151000, HeapGoal: 4 << 20, HeapLive: 1 << 20},
		{Step: 1}, // all-zero row survives too
		{Step: 2, AllocBytes: 1 << 40, GCCycles: 1 << 33, GCPauseNs: 1}, // >32-bit values
	}
	paths := []span.StepPath{
		{Step: 0, Gating: 1, Weight: 58, ComputeNs: 1000, SerializeNs: 100, SendNs: 250, BarrierNs: 8650},
		{Step: 1, Gating: 0, Weight: 7, ComputeNs: 1, BarrierNs: 999},
	}
	heat := []HeatPartition{
		{Step: 0, Worker: 0, Active: 5, ComputeUnits: 12, OutInterior: 3,
			OutBoundary: 7, InInterior: 3, InBoundary: 4, ReplicaSync: 7},
		{Step: 0, Worker: 1, Active: 4, ComputeUnits: 9, OutInterior: 2,
			OutBoundary: 4, InInterior: 2, InBoundary: 7, ReplicaSync: 4},
		{Step: 1, Worker: 0, Active: 0, ComputeUnits: 0},
		{Step: 1, Worker: 1, Active: 1, ComputeUnits: 3, OutBoundary: 1},
	}
	hot := []HotVertex{
		{Vertex: 7, Worker: 1, Msgs: 30, Units: 12},
		{Vertex: 2, Worker: 0, Msgs: 30, Units: 40},
		{Vertex: 9, Worker: 3, Msgs: 1, Units: 0},
	}
	timings := [][]int64{
		{0, 100, 2_500_000, 0, 1_000_000, 4_000_000},
		{1, 101, 2_500_000, 31, 1_000_000, 4_000_000},
	}

	for _, c := range []struct {
		name, header string
		want         any                       // the sample rows
		blob         []byte                    // the writer's bytes for them
		parse        func([]byte) (any, error) // the reader
		encode       func(any) []byte          // the writer, on what the reader returned
		reject       map[string]string         // file-specific bodies the reader refuses
	}{
		{
			name: "mem.csv", header: MemCSVHeader, want: memSteps, blob: EncodeMemCSV(memSteps),
			parse:  func(b []byte) (any, error) { return ParseMemCSV(b) },
			encode: func(v any) []byte { return EncodeMemCSV(v.([]MemStep)) },
			reject: map[string]string{
				"negative alloc_bytes": MemCSVHeader + "\n0,-1,0,0,0,0\n",
				"negative heap_live":   MemCSVHeader + "\n0,0,0,0,0,-5\n",
			},
		},
		{
			name: "critpath.csv", header: CritPathCSVHeader, want: paths, blob: EncodeCritPathCSV(paths),
			parse:  func(b []byte) (any, error) { return ParseCritPathCSV(b) },
			encode: func(v any) []byte { return EncodeCritPathCSV(v.([]span.StepPath)) },
			reject: map[string]string{
				"leading whitespace":  "\n" + CritPathCSVHeader + "\n1,2,3,4,5,6,7\n",
				"trailing whitespace": CritPathCSVHeader + "\n1,2,3,4,5,6,7\n\n",
			},
		},
		{
			name: "heat.csv", header: HeatCSVHeader, want: heat, blob: EncodeHeatCSV(heat),
			parse:  func(b []byte) (any, error) { return ParseHeatCSV(b) },
			encode: func(v any) []byte { return EncodeHeatCSV(v.([]HeatPartition)) },
		},
		{
			name: "hotset.csv", header: HotsetCSVHeader, want: hot, blob: EncodeHotsetCSV(hot),
			parse:  func(b []byte) (any, error) { return ParseHotsetCSV(b) },
			encode: func(v any) []byte { return EncodeHotsetCSV(v.([]HotVertex)) },
			reject: map[string]string{"non-contiguous rank": HotsetCSVHeader + "\n2,7,1,30,12\n"},
		},
		{
			name: "timings.csv", header: TimingsCSVHeader, want: timings, blob: timingsLog(2).timingsCSV(),
			parse:  func(b []byte) (any, error) { return ParseIntCSV(b, "timings.csv", TimingsCSVHeader) },
			encode: func(v any) []byte { return intTable(TimingsCSVHeader, v.([][]int64)) },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimSuffix(string(c.blob), "\n"), "\n")
			if lines[0] != c.header {
				t.Errorf("header = %q, want %q", lines[0], c.header)
			}
			if n := reflect.ValueOf(c.want).Len(); len(lines) != 1+n {
				t.Fatalf("encoded %d lines, want header + %d rows", len(lines), n)
			}
			got, err := c.parse(c.blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("round trip changed rows:\nin:  %+v\nout: %+v", c.want, got)
			}
			if again := c.encode(got); !bytes.Equal(c.blob, again) {
				t.Errorf("re-encode differs:\nfirst:\n%s\nsecond:\n%s", c.blob, again)
			}

			// An empty file (a run with zero supersteps) round-trips too.
			empty := []byte(c.header + "\n")
			if got, err := c.parse(empty); err != nil || reflect.ValueOf(got).Len() != 0 {
				t.Errorf("empty file parsed to %v, err %v", got, err)
			} else if again := c.encode(got); !bytes.Equal(again, empty) {
				t.Errorf("empty file re-encoded as %q", again)
			}

			// Strictness. ones is a valid row of the file's width.
			width := strings.Count(c.header, ",") + 1
			ones := strings.TrimSuffix(strings.Repeat("1,", width), ",")
			bad := map[string]string{
				"foreign header":   "step,foreign\n0,1\n",
				"short row":        c.header + "\n1,2\n",
				"long row":         c.header + "\n" + ones + ",1\n",
				"non-integer cell": c.header + "\n" + strings.TrimSuffix(ones, "1") + "x\n",
				"blank line":       c.header + "\n" + ones + "\n\n" + ones + "\n",
				"padded cell":      c.header + "\n" + ones + " \n",
			}
			for name, body := range c.reject {
				bad[name] = body
			}
			if _, err := c.parse([]byte(c.header + "\n" + ones + "\n")); err != nil {
				t.Fatalf("row of ones refused, so the rejections below prove nothing: %v", err)
			}
			for name, body := range bad {
				if _, err := c.parse([]byte(body)); err == nil {
					t.Errorf("%s accepted: %q", name, body)
				}
			}
		})
	}
}

// csvSpans is one superstep's canonical stream for workers workers: Compute,
// Serialize and Send per worker, then the Superstep span.
func csvSpans(step, workers int) []span.Span {
	var out []span.Span
	for w := range workers {
		out = append(out,
			span.Span{ID: span.ID(span.Compute, step, w, -1), Parent: span.StepID(step), Kind: span.Compute,
				Step: step, Worker: w, From: -1, Units: int64(4 + w), Dur: time.Millisecond},
			span.Span{ID: span.ID(span.Serialize, step, w, -1), Parent: span.SendID(step, w), Kind: span.Serialize,
				Step: step, Worker: w, From: -1, Dur: time.Microsecond},
			span.Span{ID: span.SendID(step, w), Parent: span.StepID(step), Kind: span.Send,
				Step: step, Worker: w, From: -1, Msgs: 1, Dur: 250 * time.Microsecond},
		)
	}
	return append(out, span.Span{ID: span.StepID(step), Parent: span.RunID(), Kind: span.Superstep,
		Step: step, Worker: -1, From: -1, Dur: 3 * time.Millisecond})
}

func TestSpansCSVDeterministicAndDurationFree(t *testing.T) {
	spans := csvSpans(0, 2)
	a := EncodeSpansCSV(spans)
	// Re-encode with every duration perturbed: the CSV must not move a byte.
	for i := range spans {
		spans[i].Dur *= 7
		spans[i].Start += time.Second
	}
	b := EncodeSpansCSV(spans)
	if !bytes.Equal(a, b) {
		t.Fatalf("spans.csv depends on measured durations:\n%s\nvs\n%s", a, b)
	}
	if !strings.HasPrefix(string(a), "id,parent,kind,step,worker,from,units,msgs\n") {
		t.Fatalf("spans.csv header = %q", strings.SplitN(string(a), "\n", 2)[0])
	}
}

// TestCSVWritersAllocatePerFile holds every writer to a per-file cost: going
// from 100 rows to 10 000 may add only the buffer's growth, never an
// allocation per row or per cell.
func TestCSVWritersAllocatePerFile(t *testing.T) {
	writers := map[string]func(n int) func(){
		"series.csv": func(n int) func() {
			l := timingsLog(n)
			return func() { l.seriesCSV() }
		},
		"timings.csv": func(n int) func() {
			l := timingsLog(n)
			return func() { l.timingsCSV() }
		},
		"comm": func(n int) func() {
			l := timingsLog(0)
			for i := range n {
				l.cells = append(l.cells, commCell{step: i / 12, from: i % 4, to: i % 3, msgs: 40_000, wire: 480_013})
			}
			return func() { l.WriteCommCSV(io.Discard) }
		},
		"mem.csv": func(n int) func() {
			steps := make([]MemStep, n)
			for i := range steps {
				steps[i] = MemStep{Step: i, AllocBytes: 1<<30 + 1<<20 + 77,
					GCCycles: 1, GCPauseNs: 45_000, HeapGoal: 1 << 32, HeapLive: 3 << 30}
			}
			return func() { EncodeMemCSV(steps) }
		},
		"spans.csv": func(n int) func() {
			var spans []span.Span
			for step := 0; len(spans) < n; step++ {
				spans = append(spans, csvSpans(step, 4)...)
			}
			spans = spans[:n]
			return func() { EncodeSpansCSV(spans) }
		},
		"critpath.csv": func(n int) func() {
			paths := make([]span.StepPath, n)
			for i := range paths {
				paths[i] = span.StepPath{Step: i, Gating: i % 4, Weight: 123_456,
					ComputeNs: 2_500_000, SerializeNs: 1000, SendNs: 300_000, BarrierNs: 45_000}
			}
			return func() { EncodeCritPathCSV(paths) }
		},
		"heat.csv": func(n int) func() {
			rows := make([]HeatPartition, n)
			for i := range rows {
				rows[i] = HeatPartition{Step: i / 4, Worker: i % 4, Active: 5000, ComputeUnits: 30_000,
					OutInterior: 20_000, OutBoundary: 10_000, InInterior: 20_000, InBoundary: 9000, ReplicaSync: 4000}
			}
			return func() { EncodeHeatCSV(rows) }
		},
		"hotset.csv": func(n int) func() {
			hot := make([]HotVertex, n)
			for i := range hot {
				hot[i] = HotVertex{Vertex: int64(1_000_000 + i), Worker: i % 4, Msgs: 50_000, Units: 120_000}
			}
			return func() { EncodeHotsetCSV(hot) }
		},
	}
	for name, writer := range writers {
		small := testing.AllocsPerRun(5, writer(100))
		large := testing.AllocsPerRun(5, writer(10_000))
		t.Logf("%s: %.0f allocs at 100 rows, %.0f at 10 000", name, small, large)
		if large-small > 16 {
			t.Errorf("%s: %.0f allocs at 100 rows, %.0f at 10 000: more than buffer growth", name, small, large)
		}
	}
}
