package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// encodeSections re-encodes a record's rows section by section: the typed
// writers, plus the row appends the Log's series and timings renderers use.
func encodeSections(rec *Record) [numSections][]byte {
	return [numSections][]byte{encodeSeries(rec.Series), encodeTimings(rec.Timings), EncodeMemCSV(rec.Mem),
		EncodeSpansCSV(rec.Spans), EncodeCritPathCSV(rec.CritPath), EncodeHeatCSV(rec.Heat), EncodeHotsetCSV(rec.Hot)}
}

func encodeSeries(rows []SeriesRow) []byte {
	b := newCSV(SeriesCSVHeader, len(rows))
	for i := range rows {
		b = appendSeriesRow(b, &rows[i])
	}
	return b
}

func encodeTimings(rows []Timing) []byte {
	b := newCSV(TimingsCSVHeader, len(rows))
	for _, t := range rows {
		b = endRow(ints(b, int64(t.Step), t.PRS, t.CMP, t.SND, t.SYN, t.Wall))
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

// Sample rows for every typed section.
var (
	sampleMem = []MemStep{
		{Step: 0, AllocBytes: 2485, GCCycles: 2, GCPauseNs: 151000, HeapGoal: 4 << 20, HeapLive: 1 << 20},
		{Step: 1}, // all-zero row survives too
		{Step: 2, AllocBytes: 1 << 40, GCCycles: 1 << 33, GCPauseNs: 1}, // >32-bit values
		{Step: 3, HeapGoal: 1<<63 + 5},                                  // >63-bit values
	}
	samplePaths = []span.StepPath{
		{Step: 0, Gating: 1, Weight: 58, ComputeNs: 1000, SerializeNs: 100, SendNs: 250, BarrierNs: 8650},
		{Step: 1, Gating: 0, Weight: 7, ComputeNs: 1, BarrierNs: 999},
	}
	sampleHeat = []HeatPartition{
		{Step: 0, Worker: 0, Active: 5, ComputeUnits: 12, OutInterior: 3,
			OutBoundary: 7, InInterior: 3, InBoundary: 4, ReplicaSync: 7},
		{Step: 0, Worker: 1, Active: 4, ComputeUnits: 9, OutInterior: 2,
			OutBoundary: 4, InInterior: 2, InBoundary: 7, ReplicaSync: 4},
		{Step: 1, Worker: 0, Active: 0, ComputeUnits: 0},
		{Step: 1, Worker: 1, Active: 1, ComputeUnits: 3, OutBoundary: 1},
	}
	sampleHot = []HotVertex{
		{Vertex: 7, Worker: 1, Msgs: 30, Units: 12},
		{Vertex: 2, Worker: 0, Msgs: 30, Units: 40},
		{Vertex: 9, Worker: 3, Msgs: 1, Units: 0},
	}
)

// TestCSVRoundTrip pins every section's Encode/Parse contract: the sample
// rows survive the round trip unchanged, re-encoding what the reader returned
// yields the identical bytes (the property the byte-identity of the heat and
// hotset sections is built on), an empty section round-trips too, and the
// reader refuses anything the writer would not write.
func TestCSVRoundTrip(t *testing.T) {
	timings := []Timing{
		{Step: 0, PRS: 100, CMP: 2_500_000, SND: 0, SYN: 1_000_000, Wall: 4_000_000},
		{Step: 1, PRS: 101, CMP: 2_500_000, SND: 31, SYN: 1_000_000, Wall: 4_000_000},
	}
	seriesLog := timingsLog(2)
	var series []SeriesRow
	for i, st := range seriesLog.stats {
		st.Durations = [len(st.Durations)]time.Duration{} // durations live in the timings section
		series = append(series, SeriesRow{Stats: st, Wire: seriesLog.steps[i].wire, Skew: seriesLog.steps[i].skew,
			Replicas: seriesLog.info.Replicas, ReplicaValueBytes: seriesLog.info.ReplicaValueBytes})
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
			name: "mem.csv", header: MemCSVHeader, want: sampleMem, blob: EncodeMemCSV(sampleMem),
			parse:  func(b []byte) (any, error) { return ParseMemCSV(b) },
			encode: func(v any) []byte { return EncodeMemCSV(v.([]MemStep)) },
			reject: map[string]string{
				"leading zero":         MemCSVHeader + "\n00,0,0,0,0,0\n",
				"plus sign":            MemCSVHeader + "\n+1,0,0,0,0,0\n",
				"negative alloc_bytes": MemCSVHeader + "\n0,-1,0,0,0,0\n",
				"negative heap_live":   MemCSVHeader + "\n0,0,0,0,0,-5\n",
			},
		},
		{
			name: "critpath.csv", header: CritPathCSVHeader, want: samplePaths, blob: EncodeCritPathCSV(samplePaths),
			parse: func(b []byte) (any, error) {
				rec, err := parseSection(CritPathSection, b)
				return rec.CritPath, err
			},
			encode: func(v any) []byte { return EncodeCritPathCSV(v.([]span.StepPath)) },
			reject: map[string]string{
				"leading whitespace":  "\n" + CritPathCSVHeader + "\n1,2,3,4,5,6,7\n",
				"trailing whitespace": CritPathCSVHeader + "\n1,2,3,4,5,6,7\n\n",
			},
		},
		{
			name: "heat.csv", header: HeatCSVHeader, want: sampleHeat, blob: EncodeHeatCSV(sampleHeat),
			parse:  func(b []byte) (any, error) { return ParseHeatCSV(b) },
			encode: func(v any) []byte { return EncodeHeatCSV(v.([]HeatPartition)) },
		},
		{
			name: "hotset.csv", header: HotsetCSVHeader, want: sampleHot, blob: EncodeHotsetCSV(sampleHot),
			parse:  func(b []byte) (any, error) { return ParseHotsetCSV(b) },
			encode: func(v any) []byte { return EncodeHotsetCSV(v.([]HotVertex)) },
			reject: map[string]string{"non-contiguous rank": HotsetCSVHeader + "\n2,7,1,30,12\n"},
		},
		{
			name: "timings.csv", header: TimingsCSVHeader, want: timings, blob: timingsLog(2).timingsCSV(),
			parse: func(b []byte) (any, error) {
				rec, err := parseSection(TimingsSection, b)
				return rec.Timings, err
			},
			encode: func(v any) []byte { return encodeTimings(v.([]Timing)) },
		},
		{
			name: "series.csv", header: SeriesCSVHeader, want: series, blob: seriesLog.seriesCSV(),
			parse: func(b []byte) (any, error) {
				rec, err := parseSection(SeriesSection, b)
				return rec.Series, err
			},
			encode: func(v any) []byte { return encodeSeries(v.([]SeriesRow)) },
			reject: map[string]string{
				"redundant_ratio not messages' share": SeriesCSVHeader + "\n" +
					"1,1,1,4,1,0.5,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1\n",
				"non-canonical float": SeriesCSVHeader + "\n" +
					"1,1,1,1,1,1,1,1,1,1,1,1.0,1,1,1,1,1,1,1,1,1\n",
			},
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

			// An empty section (a run with zero supersteps) round-trips too.
			empty := []byte(c.header + "\n")
			if got, err := c.parse(empty); err != nil || reflect.ValueOf(got).Len() != 0 {
				t.Errorf("empty section parsed to %v, err %v", got, err)
			} else if again := c.encode(got); !bytes.Equal(again, empty) {
				t.Errorf("empty section re-encoded as %q", again)
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
				"no last newline":  c.header + "\n" + ones,
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
			span.Span{ID: span.ID(span.Compute, step, w), Parent: span.StepID(step), Kind: span.Compute,
				Step: step, Worker: w, Units: int64(4 + w), Dur: time.Millisecond},
			span.Span{ID: span.ID(span.Serialize, step, w), Parent: span.SendID(step, w), Kind: span.Serialize,
				Step: step, Worker: w, Dur: time.Microsecond},
			span.Span{ID: span.SendID(step, w), Parent: span.StepID(step), Kind: span.Send,
				Step: step, Worker: w, Msgs: 1, Dur: 250 * time.Microsecond},
		)
	}
	return append(out, span.Span{ID: span.StepID(step), Parent: span.RunID(), Kind: span.Superstep,
		Step: step, Worker: -1, Dur: 3 * time.Millisecond})
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
	if !strings.HasPrefix(string(a), "id,parent,kind,step,worker,units,msgs\n") {
		t.Fatalf("spans.csv header = %q", strings.SplitN(string(a), "\n", 2)[0])
	}
}

// TestCSVWritersAllocatePerFile holds every writer to a per-file cost: going
// from 100 rows to 10 000 may add only the buffer's growth, never an
// allocation per row or per cell.
func TestCSVWritersAllocatePerFile(t *testing.T) {
	writers := map[string]func(n int) func(){
		"series": func(n int) func() {
			l := timingsLog(n)
			return func() { l.seriesCSV() }
		},
		"timings": func(n int) func() {
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
		"mem": func(n int) func() {
			steps := make([]MemStep, n)
			for i := range steps {
				steps[i] = MemStep{Step: i, AllocBytes: 1<<30 + 1<<20 + 77,
					GCCycles: 1, GCPauseNs: 45_000, HeapGoal: 1 << 32, HeapLive: 3 << 30}
			}
			return func() { EncodeMemCSV(steps) }
		},
		"spans": func(n int) func() {
			var spans []span.Span
			for step := 0; len(spans) < n; step++ {
				spans = append(spans, csvSpans(step, 4)...)
			}
			spans = spans[:n]
			return func() { EncodeSpansCSV(spans) }
		},
		"critpath": func(n int) func() {
			paths := make([]span.StepPath, n)
			for i := range paths {
				paths[i] = span.StepPath{Step: i, Gating: i % 4, Weight: 123_456,
					ComputeNs: 2_500_000, SerializeNs: 1000, SendNs: 300_000, BarrierNs: 45_000}
			}
			return func() { EncodeCritPathCSV(paths) }
		},
		"heat": func(n int) func() {
			rows := make([]HeatPartition, n)
			for i := range rows {
				rows[i] = HeatPartition{Step: i / 4, Worker: i % 4, Active: 5000, ComputeUnits: 30_000,
					OutInterior: 20_000, OutBoundary: 10_000, InInterior: 20_000, InBoundary: 9000, ReplicaSync: 4000}
			}
			return func() { EncodeHeatCSV(rows) }
		},
		"hotset": func(n int) func() {
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

// sampleRecord writes a record with rows in every section through the
// Recorder's own writer and returns its bytes.
func sampleRecord(t testing.TB) []byte {
	dir := t.TempDir()
	r, err := NewRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Log = timingsLog(2)
	r.mem, r.heat, r.hot = sampleMem, sampleHeat, sampleHot
	r.spans = append(csvSpans(0, 2), csvSpans(1, 2)...)
	m := Manifest{Run: "run-001-cyclops", Engine: "cyclops", Workers: 2, Supersteps: 2}
	if err := r.write(m); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, m.Run+".rec"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRecordSections: a record is its manifest and its sections end to end,
// each section's rows re-encode to its bytes, and a record whose sections
// are missing, reordered, duplicated or malformed is refused with an error
// that names the run and the section.
func TestRecordSections(t *testing.T) {
	blob := sampleRecord(t)
	rec, err := ParseRecord("run-001-cyclops", blob)
	if err != nil {
		t.Fatal(err)
	}
	whole := append([]byte(nil), rec.ManifestJSON...)
	for s, raw := range encodeSections(rec) {
		if !bytes.Equal(raw, rec.Raw[s]) {
			t.Errorf("%s re-encodes differently:\nread:\n%s\nagain:\n%s", Section(s), rec.Raw[s], raw)
		}
		if bytes.Count(raw, []byte{'\n'}) < 2 {
			t.Errorf("%s has no rows, so the checks below prove little", Section(s))
		}
		whole = append(whole, rec.Raw[s]...)
	}
	if !bytes.Equal(whole, blob) {
		t.Error("manifest and sections do not add up to the record")
	}
	if rec.Manifest.Run != "run-001-cyclops" || rec.Manifest.Supersteps != 2 {
		t.Errorf("manifest = %+v", rec.Manifest)
	}

	join := func(order ...Section) string {
		out := string(rec.ManifestJSON)
		for _, s := range order {
			out += string(rec.Raw[s])
		}
		return out
	}
	all := []Section{SeriesSection, TimingsSection, MemSection, SpansSection, CritPathSection, HeatSection, HotsetSection}
	for name, c := range map[string]struct{ blob, want string }{
		"missing heat":    {join(all[:5]...) + join(HotsetSection)[len(rec.ManifestJSON):], "section heat missing"},
		"missing hotset":  {join(all[:6]...), "section hotset missing"},
		"swapped":         {join(all[:4]...) + join(HeatSection, CritPathSection, HotsetSection)[len(rec.ManifestJSON):], "section critpath out of order"},
		"duplicated":      {join(SeriesSection, TimingsSection, TimingsSection, MemSection), "section timings duplicated"},
		"duplicated last": {string(blob) + string(rec.Raw[HotsetSection]), "section hotset duplicated"},
		"trailing bytes":  {string(blob) + "x\n", "section hotset: row 5"},
		"truncated":       {string(blob[:len(blob)-3]), "section hotset: row 4"},
		"malformed row":   {strings.Replace(string(blob), "0,2485,", "0,2485.0,", 1), "section mem: row 2: field 2"},
		"deliver span":    {strings.Replace(string(blob), ",compute,", ",deliver,", 1), `section spans: row 2: field 3: unknown span kind "deliver"`},
		"no manifest":     {string(blob[len(rec.ManifestJSON):]), "manifest"},
		"glued manifest":  {strings.TrimSuffix(string(rec.ManifestJSON), "\n") + string(blob[len(rec.ManifestJSON):]), "manifest not followed by a newline"},
		"empty":           {"", "manifest"},
	} {
		_, err := ParseRecord("run-007-x", []byte(c.blob))
		if err == nil || !strings.Contains(err.Error(), "run-007-x") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming run-007-x and %q", name, err, c.want)
		}
	}
}

// FuzzReadRecord feeds arbitrary bytes to the reader as a run's .rec file.
// It returns a record or an error naming the run, never panics; a record it
// accepts re-encodes section by section to the very bytes it read, and
// ReadManifests lists the same manifest for it. The committed seeds are a
// real record per engine, a truncated one and one with two sections swapped.
func FuzzReadRecord(f *testing.F) {
	f.Add(sampleRecord(f))
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "run-001-fuzz.rec"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadRecord(dir, "run-001-fuzz")
		if err != nil {
			if !strings.Contains(err.Error(), "run-001-fuzz") {
				t.Fatalf("error does not name the run: %v", err)
			}
			return
		}
		for s, raw := range encodeSections(rec) {
			if !bytes.Equal(raw, rec.Raw[s]) {
				t.Fatalf("%s re-encodes differently:\nread:  %q\nagain: %q", Section(s), rec.Raw[s], raw)
			}
		}
		if ms, err := ReadManifests(dir); err != nil || len(ms) != 1 || ms[0] != rec.Manifest {
			t.Fatalf("ReadManifests = %+v, %v; the record reads as %+v", ms, err, rec.Manifest)
		}
	})
}
