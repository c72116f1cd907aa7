package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// This file is the only place that knows the flight record's layout: a run
// record is the manifest's JSON, then seven sections in Section order, each a
// CSV header line and rows. A writer appends every cell into one []byte sized
// from its row count (a row is guessed as long as its header), so a section
// costs a few allocations however many rows it has. Same rows in, same bytes
// out. The one reader is strict: it takes what the writers write and nothing
// else, so a parse and a re-encode give back the same bytes.

// The flight record's column sets. The series, spans, heat and hotset
// sections hold counts only and are byte-identical across same-seed runs;
// timings, mem and critpath's *_ns columns are measured, so the perf gate
// reads but never exact-compares them.
const (
	// SeriesCSVHeader starts the series section: one row per superstep of
	// scheduling-independent counts, model costs and residual quantiles — no
	// wall clock; phase walls go to the timings section. compute_units_max,
	// send_max and recv_max are the StepStats maxima over workers, except
	// under powergraph (gas), which records per-worker means.
	SeriesCSVHeader = "step,active,changed,messages,redundant_messages," +
		"redundant_ratio,wire_bytes,compute_units_max,send_max,recv_max," +
		"residual_n,residual_p50,residual_p90,residual_max," +
		"skew_compute,skew_sent,skew_recv,skew_active," +
		"replicas,replica_value_bytes,model_ns"
	// TimingsCSVHeader starts the timings section: measured phase walls,
	// kept apart from the series so machine noise never touches it. wall_ns is
	// the Log's own OnSuperstepStart → OnSuperstep clock.
	TimingsCSVHeader = "step,prs_ns,cmp_ns,snd_ns,syn_ns,wall_ns"
	// MemCSVHeader starts the mem section: one row per superstep of
	// allocation and GC telemetry, all machine- and GC-schedule-dependent.
	MemCSVHeader = "step,alloc_bytes,gc_cycles,gc_pause_ns,heap_goal_bytes,heap_live_bytes"
	// SpansCSVHeader starts the spans section: span structure and
	// deterministic weights, no durations.
	SpansCSVHeader = "id,parent,kind,step,worker,units,msgs"
	// CritPathCSVHeader starts the critpath section: the first three columns
	// are structure; the *_ns columns are the gating worker's measured time.
	CritPathCSVHeader = "step,gating_worker,weight,compute_ns,serialize_ns,send_ns,barrier_wait_ns"
	// HeatCSVHeader starts the heat section: a row per (superstep, worker).
	HeatCSVHeader = "step,worker,active,compute_units,out_interior,out_boundary,in_interior,in_boundary,replica_sync"
	// HotsetCSVHeader starts the hotset section: the run's final top-k
	// hot-vertex set, rank 1 first.
	HotsetCSVHeader = "rank,vertex,worker,msgs,units"
	// CommCSVHeader is the -comm CSV: one row per (superstep, sender,
	// receiver) cell with non-zero traffic.
	CommCSVHeader = "engine,workers,step,from,to,messages,wire_bytes"
)

// newCSV starts a file with its header line, in a buffer sized for rows rows
// about as long as the header.
func newCSV(header string, rows int) []byte {
	b := make([]byte, 0, (rows+1)*(len(header)+1))
	return append(append(b, header...), '\n')
}

// ints, uints and floats append cells, each followed by a comma; endRow turns
// the row's last comma into its newline.
func ints(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = append(strconv.AppendInt(b, v, 10), ',')
	}
	return b
}

func uints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = append(strconv.AppendUint(b, v, 10), ',')
	}
	return b
}

func floats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ',')
	}
	return b
}

func str(b []byte, s string) []byte { return append(append(b, s...), ',') }

func endRow(b []byte) []byte {
	b[len(b)-1] = '\n'
	return b
}

// seriesCSV renders the series section. Caller holds mu.
func (l *Log) seriesCSV() []byte {
	b := newCSV(SeriesCSVHeader, len(l.steps))
	for i := range l.steps {
		b = appendSeriesRow(b, &SeriesRow{Stats: l.stats[i], Wire: l.steps[i].wire, Skew: l.steps[i].skew,
			Replicas: l.info.Replicas, ReplicaValueBytes: l.info.ReplicaValueBytes})
	}
	return b
}

func appendSeriesRow(b []byte, r *SeriesRow) []byte {
	s := &r.Stats
	b = ints(b, int64(s.Step), s.Active, s.Changed, s.Messages, s.RedundantMessages)
	b = floats(b, s.RedundantRatio())
	b = ints(b, r.Wire, s.ComputeUnitsMax, s.SendMax, s.RecvMax, s.ResidualN)
	b = floats(b, s.ResidualP50, s.ResidualP90, s.ResidualMax,
		r.Skew.Compute, r.Skew.Sent, r.Skew.Received, r.Skew.Active)
	b = ints(b, r.Replicas, r.ReplicaValueBytes)
	return endRow(floats(b, s.ModelNanos))
}

// timingsCSV renders the timings section. Caller holds mu.
func (l *Log) timingsCSV() []byte {
	b := newCSV(TimingsCSVHeader, len(l.steps))
	for i := range l.steps {
		s, d := &l.stats[i], &l.stats[i].Durations
		b = endRow(ints(b, int64(s.Step),
			d[metrics.Parse].Nanoseconds(), d[metrics.Compute].Nanoseconds(),
			d[metrics.Send].Nanoseconds(), d[metrics.Sync].Nanoseconds(),
			l.steps[i].wall.Nanoseconds()))
	}
	return b
}

// WriteCommCSV writes the run's per-superstep traffic cells as the -comm CSV
// (zero cells omitted). The bytes are rendered under the Log's lock and
// written outside it.
func (l *Log) WriteCommCSV(w io.Writer) error {
	l.mu.Lock()
	b := newCSV(CommCSVHeader, len(l.cells))
	for _, c := range l.cells {
		b = str(b, l.info.Engine)
		b = endRow(ints(b, int64(l.info.Workers), int64(c.step), int64(c.from), int64(c.to), c.msgs, c.wire))
	}
	l.mu.Unlock()
	_, err := w.Write(b)
	return err
}

// EncodeMemCSV renders per-superstep memory telemetry as the mem section.
func EncodeMemCSV(steps []MemStep) []byte {
	b := newCSV(MemCSVHeader, len(steps))
	for _, s := range steps {
		b = ints(b, int64(s.Step))
		b = uints(b, s.AllocBytes, s.GCCycles)
		b = ints(b, s.GCPauseNs)
		b = endRow(uints(b, s.HeapGoal, s.HeapLive))
	}
	return b
}

// EncodeSpansCSV renders the spans section from a span stream.
func EncodeSpansCSV(spans []span.Span) []byte {
	b := newCSV(SpansCSVHeader, len(spans))
	for _, s := range spans {
		b = str(ints(b, s.ID, s.Parent), s.Kind.String())
		b = endRow(ints(b, int64(s.Step), int64(s.Worker), s.Units, s.Msgs))
	}
	return b
}

// EncodeCritPathCSV renders the critpath section from path rows.
func EncodeCritPathCSV(paths []span.StepPath) []byte {
	b := newCSV(CritPathCSVHeader, len(paths))
	for _, p := range paths {
		b = endRow(ints(b, int64(p.Step), int64(p.Gating), p.Weight,
			p.ComputeNs, p.SerializeNs, p.SendNs, p.BarrierNs))
	}
	return b
}

// EncodeHeatCSV renders heat rows as the heat section.
func EncodeHeatCSV(rows []HeatPartition) []byte {
	b := newCSV(HeatCSVHeader, len(rows))
	for _, r := range rows {
		b = endRow(ints(b, int64(r.Step), int64(r.Worker), r.Active, r.ComputeUnits,
			r.OutInterior, r.OutBoundary, r.InInterior, r.InBoundary, r.ReplicaSync))
	}
	return b
}

// EncodeHotsetCSV renders a hot-vertex set as the hotset section.
func EncodeHotsetCSV(hot []HotVertex) []byte {
	b := newCSV(HotsetCSVHeader, len(hot))
	for i, h := range hot {
		b = endRow(ints(b, int64(i+1), h.Vertex, int64(h.Worker), h.Msgs, h.Units))
	}
	return b
}

// Section is one part of a run record. The recorder writes them in this
// order, each starting with its header line.
type Section int

const (
	SeriesSection Section = iota
	TimingsSection
	MemSection
	SpansSection
	CritPathSection
	HeatSection
	HotsetSection
	numSections
)

var (
	sectionHeaders = [numSections]string{SeriesCSVHeader, TimingsCSVHeader, MemCSVHeader,
		SpansCSVHeader, CritPathCSVHeader, HeatCSVHeader, HotsetCSVHeader}
	sectionNames = [numSections]string{"series", "timings", "mem", "spans", "critpath", "heat", "hotset"}
)

func (s Section) String() string { return sectionNames[s] }

// sectionOf is the section whose header line is line, or numSections.
func sectionOf(line []byte) Section {
	s := SeriesSection
	for s < numSections && string(line) != sectionHeaders[s] {
		s++
	}
	return s
}

// SeriesRow is one series row: a superstep's counts, residual quantiles and
// model cost (Stats, whose Durations go to the timings section instead), its
// wire bytes and skew, and the run's replica totals.
type SeriesRow struct {
	Stats                       metrics.StepStats
	Wire                        int64
	Skew                        SkewStep
	Replicas, ReplicaValueBytes int64
}

// Timing is one timings row: a superstep's measured phase walls and the
// Log's own OnSuperstepStart → OnSuperstep wall, in nanoseconds.
type Timing struct {
	Step                     int
	PRS, CMP, SND, SYN, Wall int64
}

// Record is one recorded run read back from its file: the manifest, every
// section's rows, and every section's bytes as written, header line included.
type Record struct {
	Manifest     Manifest
	ManifestJSON []byte
	Series       []SeriesRow
	Timings      []Timing
	Mem          []MemStep
	Spans        []span.Span
	CritPath     []span.StepPath
	Heat         []HeatPartition
	Hot          []HotVertex
	Raw          [numSections][]byte
}

// ReadRecord reads the record of run (with or without its .rec extension)
// under root through ParseRecord.
func ReadRecord(root, run string) (*Record, error) {
	run = strings.TrimSuffix(run, recordExt)
	blob, err := os.ReadFile(filepath.Join(root, run+recordExt))
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return ParseRecord(run, blob)
}

// ParseRecord reads run's record, naming run in its errors and in the
// manifest: the manifest's JSON value and a newline, then every section in
// order, each exactly once.
// A section runs up to the next header line; its rows must be exactly what
// the writers write, so a parse and a re-encode give back the same bytes.
func ParseRecord(run string, blob []byte) (*Record, error) {
	rec := &Record{}
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&rec.Manifest); err != nil {
		return nil, fmt.Errorf("obs: record %s: manifest: %w", run, err)
	}
	n := int(dec.InputOffset())
	if n >= len(blob) || blob[n] != '\n' {
		return nil, fmt.Errorf("obs: record %s: manifest not followed by a newline", run)
	}
	rec.ManifestJSON, blob = blob[:n+1], blob[n+1:]
	for s := SeriesSection; s < numSections; s++ {
		if err := misplaced(s, blob); err != nil {
			return nil, fmt.Errorf("obs: record %s: %w", run, err)
		}
		n := bytes.IndexByte(blob, '\n') + 1
		for n < len(blob) {
			line, _, _ := bytes.Cut(blob[n:], []byte{'\n'})
			if sectionOf(line) < numSections {
				break
			}
			n = min(n+len(line)+1, len(blob))
		}
		rec.Raw[s], blob = blob[:n], blob[n:]
		if err := rec.parse(s); err != nil {
			return nil, fmt.Errorf("obs: record %s: section %s: %w", run, s, err)
		}
	}
	if len(blob) > 0 { // a section ends only at a header line, so this is a repeat
		line, _, _ := bytes.Cut(blob, []byte{'\n'})
		return nil, fmt.Errorf("obs: record %s: section %s duplicated", run, sectionOf(line))
	}
	rec.Manifest.Run = run
	return rec, nil
}

// misplaced says why blob does not start with section s's header line; nil
// when it does.
func misplaced(s Section, blob []byte) error {
	line, _, ok := bytes.Cut(blob, []byte{'\n'})
	found := sectionOf(line)
	switch {
	case found == s && ok:
		return nil
	case found < s:
		return fmt.Errorf("section %s duplicated", found)
	case found < numSections && bytes.Contains(blob, []byte("\n"+sectionHeaders[s]+"\n")):
		return fmt.Errorf("section %s out of order", s)
	}
	return fmt.Errorf("section %s missing (found %q)", s, line)
}

// parse reads section s's rows from its bytes. Each row reader takes its
// cells in column order.
func (rec *Record) parse(s Section) (err error) {
	b := rec.Raw[s]
	switch s {
	case SeriesSection:
		rec.Series, err = parseRows(b, SeriesCSVHeader, func(_ int, c *cells) SeriesRow {
			r := SeriesRow{
				Stats: metrics.StepStats{Step: int(c.i(0)), Active: c.i(1), Changed: c.i(2), Messages: c.i(3),
					RedundantMessages: c.i(4), ComputeUnitsMax: c.i(7), SendMax: c.i(8), RecvMax: c.i(9),
					ResidualN: c.i(10), ResidualP50: c.fl(11), ResidualP90: c.fl(12), ResidualMax: c.fl(13),
					ModelNanos: c.fl(20)},
				Wire:     c.i(6),
				Skew:     SkewStep{Compute: c.fl(14), Sent: c.fl(15), Received: c.fl(16), Active: c.fl(17)},
				Replicas: c.i(18), ReplicaValueBytes: c.i(19),
			}
			// redundant_ratio is derived from messages and redundant_messages.
			c.check(5, strconv.FormatFloat(r.Stats.RedundantRatio(), 'g', -1, 64), nil)
			return r
		})
	case TimingsSection:
		rec.Timings, err = parseRows(b, TimingsCSVHeader, func(_ int, c *cells) Timing {
			return Timing{Step: int(c.i(0)), PRS: c.i(1), CMP: c.i(2), SND: c.i(3), SYN: c.i(4), Wall: c.i(5)}
		})
	case MemSection:
		rec.Mem, err = parseRows(b, MemCSVHeader, func(_ int, c *cells) MemStep {
			return MemStep{Step: int(c.i(0)), AllocBytes: c.u(1), GCCycles: c.u(2), GCPauseNs: c.i(3),
				HeapGoal: c.u(4), HeapLive: c.u(5)}
		})
	case SpansSection:
		rec.Spans, err = parseRows(b, SpansCSVHeader, func(_ int, c *cells) span.Span {
			s := span.Span{ID: c.i(0), Parent: c.i(1), Step: int(c.i(3)), Worker: int(c.i(4)),
				Units: c.i(5), Msgs: c.i(6)}
			for s.Kind = span.Run; s.Kind.String() != c.f[2]; s.Kind++ {
				if s.Kind == span.BarrierWait {
					c.check(2, "", fmt.Errorf("unknown span kind %q", c.f[2]))
					break
				}
			}
			return s
		})
	case CritPathSection:
		rec.CritPath, err = parseRows(b, CritPathCSVHeader, func(_ int, c *cells) span.StepPath {
			return span.StepPath{Step: int(c.i(0)), Gating: int(c.i(1)), Weight: c.i(2),
				ComputeNs: c.i(3), SerializeNs: c.i(4), SendNs: c.i(5), BarrierNs: c.i(6)}
		})
	case HeatSection:
		rec.Heat, err = parseRows(b, HeatCSVHeader, func(_ int, c *cells) HeatPartition {
			return HeatPartition{Step: int(c.i(0)), Worker: int(c.i(1)), Active: c.i(2), ComputeUnits: c.i(3),
				OutInterior: c.i(4), OutBoundary: c.i(5), InInterior: c.i(6), InBoundary: c.i(7), ReplicaSync: c.i(8)}
		})
	case HotsetSection:
		rec.Hot, err = parseRows(b, HotsetCSVHeader, func(i int, c *cells) HotVertex {
			if rank := c.i(0); rank != int64(i+1) { // the writer numbers the set 1..n
				c.check(0, "", fmt.Errorf("rank %d, want %d", rank, i+1))
			}
			return HotVertex{Vertex: c.i(1), Worker: int(c.i(2)), Msgs: c.i(3), Units: c.i(4)}
		})
	}
	return err
}

// parseRows reads one section, header line included, mapping each row's
// cells through row: the header must be exact, every row newline-terminated
// and as wide as the header, and every cell as the writers append it.
func parseRows[T any](blob []byte, header string, row func(i int, c *cells) T) ([]T, error) {
	body, ok := bytes.CutPrefix(blob, []byte(header+"\n"))
	if !ok {
		return nil, fmt.Errorf("header is not %q", header)
	}
	width := strings.Count(header, ",") + 1
	var out []T
	var c cells
	for i := 0; len(body) > 0; i++ {
		line, rest, ok := bytes.Cut(body, []byte{'\n'})
		if !ok {
			return nil, fmt.Errorf("row %d: no newline", i+2)
		}
		if c.f = strings.Split(string(line), ","); len(c.f) != width {
			return nil, fmt.Errorf("row %d has %d fields, want %d", i+2, len(c.f), width)
		}
		t := row(i, &c)
		if c.err != nil {
			return nil, fmt.Errorf("row %d: %w", i+2, c.err)
		}
		out, body = append(out, t), rest
	}
	return out, nil
}

// cells is one row's fields. Each reader parses a field and checks that the
// writers would append the value as exactly those bytes; the first failure
// sticks in err.
type cells struct {
	f   []string
	err error
}

func (c *cells) i(j int) int64 {
	v, err := strconv.ParseInt(c.f[j], 10, 64)
	c.check(j, strconv.FormatInt(v, 10), err)
	return v
}

func (c *cells) u(j int) uint64 {
	v, err := strconv.ParseUint(c.f[j], 10, 64)
	c.check(j, strconv.FormatUint(v, 10), err)
	return v
}

func (c *cells) fl(j int) float64 {
	v, err := strconv.ParseFloat(c.f[j], 64)
	c.check(j, strconv.FormatFloat(v, 'g', -1, 64), err)
	return v
}

// check records err, or else a mismatch between field j and canon, how a
// writer writes the value parsed from it.
func (c *cells) check(j int, canon string, err error) {
	if err == nil && canon != c.f[j] {
		err = fmt.Errorf("%q is not how the value is written", c.f[j])
	}
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("field %d: %w", j+1, err)
	}
}
