package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cyclops/internal/metrics"
	"cyclops/internal/obs/span"
	"cyclops/internal/transport"
)

// Log is the one run log behind every CSV and endpoint: the latest run's
// RunInfo, the rows it retains from each StepRecord, its recoveries, the
// superstep in flight and its end, under one mutex with one allocation
// sampler. /metrics, /trace, /comm, /spans, /mem and /heat, the -verbose
// narration, the -comm CSV, the -skew table and the Recorder's files are
// render functions over it. It keeps the last run's rows after OnRunEnd so the
// endpoints stay useful between runs; a new run resets everything but the
// totals /metrics counts across runs.
type Log struct {
	mu sync.Mutex

	runs    int64 // runs seen so far: the /spans and /trace "run" field
	info    RunInfo
	started time.Time
	done    bool
	ended   RunEnd // once done; its Hot is hot's
	endedAt time.Time
	// recoveries are the run's checkpoint rollbacks and replayed the supersteps
	// they re-executed. The replayed supersteps appear again in every retained
	// row — the log shows the replay, which is what makes a recovered run
	// diffable against its fault-free twin.
	recoveries []recovery
	replayed   int

	// verbose, when set, narrates each event as it is logged (-verbose), under
	// mu, so a /trace scrape never sees a line stderr has not; slow is the
	// slow-phase factor (≤ 1 disables the detector); order lists the run's
	// phases in the order OnPhase first reported them.
	verbose slog.Handler
	slow    float64
	order   []metrics.Phase

	// The superstep in flight.
	inStep bool
	cur    int
	stepAt time.Time
	attrib *memAttrib

	stats []metrics.StepStats // one per superstep, parallel to steps
	steps []logStep
	mem   []MemStep
	heat  []HeatPartition
	cells []commCell               // non-zero traffic cells, in (step, from, to) order
	cum   transport.MatrixSnapshot // Σ of the run's traffic deltas
	spans []span.Span              // completed spans, in emission order
	// allSpans keeps the whole stream (the Recorder's spans.csv needs it);
	// otherwise the oldest half is discarded at spanLimit.
	allSpans bool
	hot      []HotVertex
	hotAt    time.Time

	skews []SkewReport // one per completed run
	tot   totals
}

// logStep is what the log keeps of one StepRecord besides its stats, heat
// rows, traffic cells, spans and memory row.
type logStep struct {
	at         time.Time     // the barrier
	wall       time.Duration // OnSuperstepStart → OnSuperstep
	skew       SkewStep
	msgs, wire int64 // the traffic delta's totals
	violations []Violation
}

// recovery is one rollback; rows is how many rows the log held when it
// happened, so it narrates after their events.
type recovery struct {
	RecoveryEvent
	at   time.Time
	rows int
}

// commCell is one (superstep, sender, receiver) cell with traffic.
type commCell struct {
	step, from, to int
	msgs, wire     int64
}

// spanLimit bounds a Log's in-memory span stream unless a Recorder needs all
// of it; the oldest half is discarded when it fills.
const spanLimit = 1 << 17

// hotRefresh bounds how often the log evaluates a record's O(|V|) Hot view:
// at a run's first barrier, then at most once per hotRefresh. OnRunEnd brings
// the exact final set.
const hotRefresh = time.Second

// NewLog returns an empty log. Register it in the engine's Hooks (typically
// via Multi) to populate it.
func NewLog() *Log {
	return &Log{attrib: newMemAttrib(),
		tot: totals{violations: map[string]int64{}, ended: map[string]int64{}}}
}

// HeatTracker is the name bench/ knows the Log by.
type HeatTracker = Log

// NewHeatTracker is NewLog under the name bench/ calls.
func NewHeatTracker() *HeatTracker { return NewLog() }

// OnRunStart implements Hooks: resets the log so it describes the newest run.
func (l *Log) OnRunStart(info RunInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs++
	l.info, l.started = info, time.Now()
	l.done, l.recoveries, l.replayed, l.inStep, l.cur = false, l.recoveries[:0], 0, false, 0
	l.stats, l.steps, l.mem, l.heat, l.cells = l.stats[:0], l.steps[:0], l.mem[:0], l.heat[:0], l.cells[:0]
	l.spans, l.cum, l.order = l.spans[:0], transport.MatrixSnapshot{}, l.order[:0]
	l.hot, l.hotAt = nil, time.Time{}
	if l.verbose != nil {
		l.narrateStart(l.verbose)
	}
}

// OnSuperstepStart implements Hooks.
func (l *Log) OnSuperstepStart(step int) {
	l.mu.Lock()
	l.inStep, l.cur, l.stepAt = true, step, time.Now()
	l.attrib.startStep(step)
	l.mu.Unlock()
}

// OnPhase implements Hooks: attributes the allocation since the previous
// phase boundary to the phase that just ended and files the duration in the
// phase histogram.
func (l *Log) OnPhase(_ int, phase metrics.Phase, d time.Duration) {
	l.mu.Lock()
	l.attrib.phase(phase)
	l.tot.observePhase(phase, d)
	if !slices.Contains(l.order, phase) {
		l.order = append(l.order, phase)
	}
	l.mu.Unlock()
}

// OnSuperstep implements Hooks: copies what the log keeps out of the record.
func (l *Log) OnSuperstep(rec *StepRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Close the allocation window first: what the log allocates below is its
	// own bookkeeping, not the superstep's.
	l.mem = append(l.mem, l.attrib.endStep())
	now := time.Now()
	st := logStep{at: now, skew: rec.Skew(), violations: slices.Clone(rec.Violations)}
	if l.inStep {
		st.wall = now.Sub(l.stepAt)
	}
	for f, row := range rec.Comm.Messages {
		for t, msgs := range row {
			wire := rec.Comm.Wire[f][t]
			st.msgs, st.wire = st.msgs+msgs, st.wire+wire
			if msgs != 0 || wire != 0 {
				l.cells = append(l.cells, commCell{rec.Step, f, t, msgs, wire})
			}
		}
	}
	l.cum = l.cum.AddInto(rec.Comm)
	l.stats, l.steps = append(l.stats, rec.Stats), append(l.steps, st)
	l.heat = rec.AppendHeat(l.heat)
	emitted := len(l.spans)
	l.spans = AppendStepSpans(l.spans, rec.Spans)
	for i := emitted; i < len(l.spans); i++ {
		l.tot.spans[l.spans[i].Kind]++
	}
	l.tot.supersteps++
	l.tot.messages += rec.Stats.Messages
	l.tot.redundant += rec.Stats.RedundantMessages
	for _, v := range rec.Violations {
		l.tot.violations[v.Kind]++
	}
	if !l.allSpans && len(l.spans) > spanLimit {
		l.spans = append(l.spans[:0], l.spans[len(l.spans)/2:]...)
	}
	if l.hotAt.IsZero() || now.Sub(l.hotAt) >= hotRefresh {
		l.hot, l.hotAt = rec.Hot(), now
	}
	l.inStep = false
	if l.verbose != nil {
		l.narrateStep(l.verbose, len(l.steps)-1)
	}
}

// OnRecovery implements Hooks.
func (l *Log) OnRecovery(e RecoveryEvent) {
	l.mu.Lock()
	r := recovery{e, time.Now(), len(l.steps)}
	l.recoveries = append(l.recoveries, r)
	l.replayed += e.Replayed()
	l.tot.recoveries++
	l.tot.replayed += int64(e.Replayed())
	if l.verbose != nil {
		l.narrateRecovery(l.verbose, r)
	}
	l.mu.Unlock()
}

// OnRunEnd implements Hooks: closes the run span, takes the final hot set and
// files the run's skew profile.
func (l *Log) OnRunEnd(e RunEnd) {
	l.mu.Lock()
	l.end(e)
	l.mu.Unlock()
}

// end closes the run. Caller holds mu.
func (l *Log) end(e RunEnd) {
	l.spans = append(l.spans, RunSpan(l.info.Run, e.Wall))
	l.hot, l.done, l.inStep = e.Hot, true, false
	l.ended, l.endedAt = e, time.Now()
	l.skews = append(l.skews, l.skewReport())
	l.tot.spans[span.Run]++
	l.tot.ended[e.Reason]++
	if l.verbose != nil {
		l.narrateEnd(l.verbose)
	}
}

// skewReport renders the current run's skew profile. Caller holds mu.
func (l *Log) skewReport() SkewReport {
	r := SkewReport{Engine: l.info.Engine, Workers: l.info.Workers,
		Replicas: imbalance(l.info.WorkerReplicas), Steps: make([]SkewStep, len(l.steps))}
	for i, s := range l.steps {
		r.Steps[i] = s.skew
	}
	return r
}

// SkewReports returns every run's skew profile in run order; a run in flight
// contributes its partial one.
func (l *Log) SkewReports() []SkewReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]SkewReport(nil), l.skews...)
	if l.runs > 0 && !l.done {
		out = append(out, l.skewReport())
	}
	return out
}

// Cumulative returns a copy of the run-so-far traffic matrix. By construction
// it matches the transport's Stats totals exactly.
func (l *Log) Cumulative() transport.MatrixSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cum.Clone()
}

// Rows returns a copy of the run's heat rows.
func (l *Log) Rows() []HeatPartition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]HeatPartition(nil), l.heat...)
}

// openSpans lists the spans whose end is not yet known: the run's and the
// in-flight superstep's. Caller holds mu.
func (l *Log) openSpans() []span.Span {
	var open []span.Span
	if l.runs > 0 && !l.done {
		open = append(open, RunSpan(l.info.Run, 0))
	}
	if l.inStep {
		open = append(open, StepSpan(l.info.Run, l.cur, l.stepAt.Sub(l.started)))
	}
	return open
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// CommCSVHeader is the stable column set of the comm CSV export: one row
// per (superstep, sender, receiver) cell with non-zero traffic.
const CommCSVHeader = "engine,workers,step,from,to,messages,wire_bytes"

// WriteCommCSV renders the run's per-superstep traffic cells as CSV (zero
// cells omitted). It lives here rather than in internal/metrics because the
// matrix type belongs to the transport layer, which metrics does not depend on.
func (l *Log) WriteCommCSV(w io.Writer) error {
	l.mu.Lock()
	engine, workers := l.info.Engine, l.info.Workers
	cells := append([]commCell(nil), l.cells...)
	l.mu.Unlock()

	if _, err := fmt.Fprintln(w, CommCSVHeader); err != nil {
		return err
	}
	for _, c := range cells {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n",
			engine, workers, c.step, c.from, c.to, c.msgs, c.wire); err != nil {
			return err
		}
	}
	return nil
}

// writePromMatrix renders one matrix in the Prometheus text exposition format
// (zero cells omitted to bound output size).
func writePromMatrix(w io.Writer, name, help string, m [][]int64) error {
	var cells []promSample
	for f, row := range m {
		for t, v := range row {
			if v != 0 {
				cells = append(cells, promSample{fmt.Sprintf("{from=\"%d\",to=\"%d\"}", f, t), itoa(v)})
			}
		}
	}
	return writeProm(w, name, help, "counter", cells...)
}

// ServeComm implements the /comm endpoint — the live counterpart of the
// paper's Table 4 (total communication volume) and Figure 10(3) (per-superstep
// message counts), refined per worker: the cumulative matrix as JSON by
// default or Prometheus text with ?format=prom, the per-superstep cells with
// ?format=csv.
func (l *Log) ServeComm(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	engine, workers, supersteps, cum := l.info.Engine, l.info.Workers, len(l.steps), l.cum.Clone()
	l.mu.Unlock()
	serveFormat(w, r, map[string]formatVariant{
		"json": {"application/json", func(w http.ResponseWriter) error {
			return writeJSON(w, struct {
				Engine          string    `json:"engine"`
				Workers         int       `json:"workers"`
				Supersteps      int       `json:"supersteps"`
				MessagesTotal   int64     `json:"messages_total"`
				WireBytesTotal  int64     `json:"wire_bytes_total"`
				EgressMessages  []int64   `json:"egress_messages"`
				IngressMessages []int64   `json:"ingress_messages"`
				EgressBytes     []int64   `json:"egress_wire_bytes"`
				IngressBytes    []int64   `json:"ingress_wire_bytes"`
				Messages        [][]int64 `json:"messages"`
				Wire            [][]int64 `json:"wire"`
			}{engine, workers, supersteps,
				cum.TotalMessages(), cum.TotalWireBytes(),
				cum.Egress(), cum.Ingress(), cum.EgressBytes(), cum.IngressBytes(),
				cum.Messages, cum.Wire})
		}},
		"prom": {"text/plain; version=0.0.4; charset=utf-8", func(w http.ResponseWriter) error {
			for _, m := range []struct {
				name, help string
				cells      [][]int64
			}{
				{MetricCommMessages, "Messages sent between worker pairs, latest run.", cum.Messages},
				{MetricCommWireBytes, "Encoded wire bytes sent between worker pairs, latest run.", cum.Wire},
			} {
				if err := writePromMatrix(w, m.name, m.help, m.cells); err != nil {
					return err
				}
			}
			return nil
		}},
		"csv": {"text/csv", func(w http.ResponseWriter) error { return l.WriteCommCSV(w) }},
	})
}

// ServeMem implements the /mem endpoint: the run's per-superstep, per-phase
// allocation telemetry as JSON by default, mem.csv with ?format=csv.
func (l *Log) ServeMem(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	resp := struct {
		Engine string    `json:"engine"`
		Done   bool      `json:"done"`
		Steps  []MemStep `json:"steps"`
	}{l.info.Engine, l.done, append([]MemStep(nil), l.mem...)}
	l.mu.Unlock()
	serveFormat(w, r, map[string]formatVariant{
		"json": {"application/json", func(w http.ResponseWriter) error { return writeJSON(w, resp) }},
		"csv": {"text/csv; charset=utf-8", func(w http.ResponseWriter) error {
			_, err := w.Write(EncodeMemCSV(resp.Steps))
			return err
		}},
	})
}

// ServeHeat implements the /heat endpoint: per-partition rows plus the hot
// set as JSON by default, heat.csv rows with ?format=csv, the hot set alone
// with ?format=hotcsv. Mid-run the hot set is at most hotRefresh stale.
func (l *Log) ServeHeat(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	resp := struct {
		Engine     string          `json:"engine"`
		Done       bool            `json:"done"`
		Partitions []HeatPartition `json:"partitions"`
		Hot        []HotVertex     `json:"hot"`
	}{l.info.Engine, l.done, append([]HeatPartition(nil), l.heat...), append([]HotVertex(nil), l.hot...)}
	l.mu.Unlock()
	serveFormat(w, r, map[string]formatVariant{
		"json": {"application/json", func(w http.ResponseWriter) error { return writeJSON(w, resp) }},
		"csv": {"text/csv", func(w http.ResponseWriter) error {
			_, err := w.Write(EncodeHeatCSV(resp.Partitions))
			return err
		}},
		"hotcsv": {"text/csv", func(w http.ResponseWriter) error {
			_, err := w.Write(EncodeHotsetCSV(resp.Hot))
			return err
		}},
	})
}

// ServeSpans implements the /spans endpoint: JSON by default (open spans,
// completed spans, per-superstep critical path), a plain-text waterfall with
// ?format=text. ?step=N restricts the completed spans to one superstep.
func (l *Log) ServeSpans(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	run, engine, open := l.runs, l.info.Engine, l.openSpans()
	done := append([]span.Span(nil), l.spans...)
	l.mu.Unlock()
	if stepQ := r.URL.Query().Get("step"); stepQ != "" {
		step, err := strconv.Atoi(stepQ)
		if err != nil {
			http.Error(w, "bad step", http.StatusBadRequest)
			return
		}
		filtered := done[:0]
		for _, s := range done {
			if s.Step == step {
				filtered = append(filtered, s)
			}
		}
		done = filtered
	}
	serveFormat(w, r, map[string]formatVariant{
		"text": {"text/plain; charset=utf-8", func(w http.ResponseWriter) error {
			fmt.Fprintf(w, "run %d engine %s: %d completed spans, %d open\n\n",
				run, engine, len(done), len(open))
			span.WriteWaterfall(w, done)
			return nil
		}},
		"json": {"application/json", func(w http.ResponseWriter) error {
			return writeJSON(w, struct {
				Run      int64           `json:"run"`
				Engine   string          `json:"engine"`
				Open     []span.Span     `json:"open"`
				CritPath []span.StepPath `json:"critpath"`
				Spans    []span.Span     `json:"spans"`
			}{run, engine, open, span.CriticalPath(done), done})
		}},
	})
}

// seriesHeader is the column set of a record's series.csv: one row per
// superstep, deterministic for a fixed run configuration — byte-identical
// across same-seed runs (scheduling-independent counts, model costs and
// residual quantiles; no wall-clock). Phase wall times go to timings.csv.
var seriesHeader = []string{
	"step", "active", "changed", "messages", "redundant_messages",
	"redundant_ratio", "wire_bytes", "compute_units_max",
	"send_max", "recv_max",
	"residual_n", "residual_p50", "residual_p90", "residual_max",
	"skew_compute", "skew_sent", "skew_recv", "skew_active",
	"replicas", "replica_value_bytes", "model_ns",
}

// timingsHeader is the column set of timings.csv: the measured per-phase wall
// durations, kept apart from series.csv so machine noise never touches the
// deterministic artifact.
var timingsHeader = []string{"step", "prs_ns", "cmp_ns", "snd_ns", "syn_ns", "wall_ns"}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// csvRows renders a header and one comma-joined row per step.
func (l *Log) csvRows(header []string, row func(s *metrics.StepStats, st *logStep) []string) []byte {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for i := range l.steps {
		b.WriteString(strings.Join(row(&l.stats[i], &l.steps[i]), ","))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// seriesCSV renders series.csv. Caller holds mu.
func (l *Log) seriesCSV() []byte {
	return l.csvRows(seriesHeader, func(s *metrics.StepStats, st *logStep) []string {
		return []string{
			strconv.Itoa(s.Step), itoa(s.Active), itoa(s.Changed), itoa(s.Messages),
			itoa(s.RedundantMessages), ftoa(s.RedundantRatio()), itoa(st.wire),
			itoa(s.ComputeUnitsMax), itoa(s.SendMax), itoa(s.RecvMax),
			itoa(s.ResidualN), ftoa(s.ResidualP50), ftoa(s.ResidualP90), ftoa(s.ResidualMax),
			ftoa(st.skew.Compute), ftoa(st.skew.Sent), ftoa(st.skew.Received), ftoa(st.skew.Active),
			itoa(l.info.Replicas), itoa(l.info.ReplicaValueBytes), ftoa(s.ModelNanos),
		}
	})
}

// timingsCSV renders timings.csv. Caller holds mu.
func (l *Log) timingsCSV() []byte {
	return l.csvRows(timingsHeader, func(s *metrics.StepStats, st *logStep) []string {
		d := &s.Durations
		return []string{
			strconv.Itoa(s.Step),
			itoa(d[metrics.Parse].Nanoseconds()), itoa(d[metrics.Compute].Nanoseconds()),
			itoa(d[metrics.Send].Nanoseconds()), itoa(d[metrics.Sync].Nanoseconds()),
			itoa(st.wall.Nanoseconds()),
		}
	})
}
