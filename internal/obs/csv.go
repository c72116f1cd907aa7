package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
)

// This file is the only place that knows the flight record's file formats:
// the eight CSV headers, one writer per file and the one reader. A writer
// appends every cell into one []byte sized from its row count (a row is
// guessed as long as its header), so a file costs a few allocations however
// many rows it has, and no cell ever becomes a string. Same rows in, same
// bytes out. The reader is strict: it takes what the writers write and
// nothing else, so a parse and a re-encode give back the same bytes.

// The flight record's column sets. series.csv, spans.csv, heat.csv and
// hotset.csv hold counts only and are byte-identical across same-seed runs;
// timings.csv, mem.csv and critpath.csv's *_ns columns are measured, so the
// perf gate reads but never exact-compares them.
const (
	// SeriesCSVHeader is series.csv: one row per superstep of
	// scheduling-independent counts, model costs and residual quantiles — no
	// wall clock; phase walls go to timings.csv. compute_units_max, send_max
	// and recv_max are the StepStats maxima over workers, except under
	// powergraph (gas), which records per-worker means.
	SeriesCSVHeader = "step,active,changed,messages,redundant_messages," +
		"redundant_ratio,wire_bytes,compute_units_max,send_max,recv_max," +
		"residual_n,residual_p50,residual_p90,residual_max," +
		"skew_compute,skew_sent,skew_recv,skew_active," +
		"replicas,replica_value_bytes,model_ns"
	// TimingsCSVHeader is timings.csv: the measured per-phase wall durations,
	// kept apart from series.csv so machine noise never touches it. wall_ns is
	// the Log's own OnSuperstepStart → OnSuperstep clock.
	TimingsCSVHeader = "step,prs_ns,cmp_ns,snd_ns,syn_ns,wall_ns"
	// MemCSVHeader is mem.csv: one row per superstep of allocation and GC
	// telemetry, all machine- and GC-schedule-dependent.
	MemCSVHeader = "step,alloc_bytes,gc_cycles,gc_pause_ns,heap_goal_bytes,heap_live_bytes"
	// SpansCSVHeader is spans.csv: span structure and deterministic weights,
	// no durations.
	SpansCSVHeader = "id,parent,kind,step,worker,from,units,msgs"
	// CritPathCSVHeader is critpath.csv: the first three columns are
	// structure; the *_ns columns are the gating worker's measured time.
	CritPathCSVHeader = "step,gating_worker,weight,compute_ns,serialize_ns,send_ns,barrier_wait_ns"
	// HeatCSVHeader is heat.csv: one row per (superstep, worker).
	HeatCSVHeader = "step,worker,active,compute_units,out_interior,out_boundary,in_interior,in_boundary,replica_sync"
	// HotsetCSVHeader is hotset.csv: the run's final top-k hot-vertex set,
	// rank 1 first.
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

// seriesCSV renders series.csv. Caller holds mu.
func (l *Log) seriesCSV() []byte {
	b := newCSV(SeriesCSVHeader, len(l.steps))
	for i := range l.steps {
		s, st := &l.stats[i], &l.steps[i]
		b = ints(b, int64(s.Step), s.Active, s.Changed, s.Messages, s.RedundantMessages)
		b = floats(b, s.RedundantRatio())
		b = ints(b, st.wire, s.ComputeUnitsMax, s.SendMax, s.RecvMax, s.ResidualN)
		b = floats(b, s.ResidualP50, s.ResidualP90, s.ResidualMax,
			st.skew.Compute, st.skew.Sent, st.skew.Received, st.skew.Active)
		b = ints(b, l.info.Replicas, l.info.ReplicaValueBytes)
		b = endRow(floats(b, s.ModelNanos))
	}
	return b
}

// timingsCSV renders timings.csv. Caller holds mu.
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

// EncodeMemCSV renders per-superstep memory telemetry as mem.csv.
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

// EncodeSpansCSV renders spans.csv from a span stream.
func EncodeSpansCSV(spans []span.Span) []byte {
	b := newCSV(SpansCSVHeader, len(spans))
	for _, s := range spans {
		b = str(ints(b, s.ID, s.Parent), s.Kind.String())
		b = endRow(ints(b, int64(s.Step), int64(s.Worker), int64(s.From), s.Units, s.Msgs))
	}
	return b
}

// EncodeCritPathCSV renders critpath.csv from path rows.
func EncodeCritPathCSV(paths []span.StepPath) []byte {
	b := newCSV(CritPathCSVHeader, len(paths))
	for _, p := range paths {
		b = endRow(ints(b, int64(p.Step), int64(p.Gating), p.Weight,
			p.ComputeNs, p.SerializeNs, p.SendNs, p.BarrierNs))
	}
	return b
}

// EncodeHeatCSV renders heat rows as heat.csv.
func EncodeHeatCSV(rows []HeatPartition) []byte {
	b := newCSV(HeatCSVHeader, len(rows))
	for _, r := range rows {
		b = endRow(ints(b, int64(r.Step), int64(r.Worker), r.Active, r.ComputeUnits,
			r.OutInterior, r.OutBoundary, r.InInterior, r.InBoundary, r.ReplicaSync))
	}
	return b
}

// EncodeHotsetCSV renders a hot-vertex set as hotset.csv.
func EncodeHotsetCSV(hot []HotVertex) []byte {
	b := newCSV(HotsetCSVHeader, len(hot))
	for i, h := range hot {
		b = endRow(ints(b, int64(i+1), h.Vertex, int64(h.Worker), h.Msgs, h.Units))
	}
	return b
}

// ParseIntCSV reads back a CSV of integer cells, named name in errors. The
// first line must be exactly header, every row as wide as it, and every cell
// a base-10 int64.
func ParseIntCSV(blob []byte, name, header string) ([][]int64, error) {
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if lines[0] != header {
		return nil, fmt.Errorf("obs: not a %s (header %q)", name, lines[0])
	}
	width := strings.Count(header, ",") + 1
	cells := make([]int64, width*(len(lines)-1))
	rows := make([][]int64, len(lines)-1)
	for i, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != width {
			return nil, fmt.Errorf("obs: %s row %d has %d fields, want %d", name, i+2, len(f), width)
		}
		rows[i] = cells[i*width : (i+1)*width : (i+1)*width]
		for j, s := range f {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: %s row %d field %d: %w", name, i+2, j+1, err)
			}
			rows[i][j] = v
		}
	}
	return rows, nil
}

// parseRows reads a file with ParseIntCSV and maps each row through row.
func parseRows[T any](blob []byte, name, header string, row func(i int, v []int64) (T, error)) ([]T, error) {
	table, err := ParseIntCSV(blob, name, header)
	if err != nil {
		return nil, err
	}
	var out []T
	for i, v := range table {
		t, err := row(i, v)
		if err != nil {
			return nil, fmt.Errorf("obs: %s row %d: %w", name, i+2, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseMemCSV reads mem.csv back. Every column but step and gc_pause_ns is
// unsigned, and a negative value there is an error.
func ParseMemCSV(blob []byte) ([]MemStep, error) {
	return parseRows(blob, "mem.csv", MemCSVHeader, func(_ int, v []int64) (MemStep, error) {
		for j, x := range v {
			if x < 0 && j != 0 && j != 3 {
				return MemStep{}, fmt.Errorf("field %d: negative count %d", j+1, x)
			}
		}
		return MemStep{Step: int(v[0]), AllocBytes: uint64(v[1]), GCCycles: uint64(v[2]),
			GCPauseNs: v[3], HeapGoal: uint64(v[4]), HeapLive: uint64(v[5])}, nil
	})
}

// ParseCritPathCSV reads critpath.csv back.
func ParseCritPathCSV(blob []byte) ([]span.StepPath, error) {
	return parseRows(blob, "critpath.csv", CritPathCSVHeader, func(_ int, v []int64) (span.StepPath, error) {
		return span.StepPath{Step: int(v[0]), Gating: int(v[1]), Weight: v[2],
			ComputeNs: v[3], SerializeNs: v[4], SendNs: v[5], BarrierNs: v[6]}, nil
	})
}

// ParseHeatCSV reads heat.csv back.
func ParseHeatCSV(blob []byte) ([]HeatPartition, error) {
	return parseRows(blob, "heat.csv", HeatCSVHeader, func(_ int, v []int64) (HeatPartition, error) {
		return HeatPartition{Step: int(v[0]), Worker: int(v[1]), Active: v[2], ComputeUnits: v[3],
			OutInterior: v[4], OutBoundary: v[5], InInterior: v[6], InBoundary: v[7], ReplicaSync: v[8]}, nil
	})
}

// ParseHotsetCSV reads hotset.csv back, verifying the rank column is the
// contiguous 1..n sequence the writer wrote.
func ParseHotsetCSV(blob []byte) ([]HotVertex, error) {
	return parseRows(blob, "hotset.csv", HotsetCSVHeader, func(i int, v []int64) (HotVertex, error) {
		if v[0] != int64(i+1) {
			return HotVertex{}, fmt.Errorf("rank %d, want %d", v[0], i+1)
		}
		return HotVertex{Vertex: v[1], Worker: int(v[2]), Msgs: v[3], Units: v[4]}, nil
	})
}
