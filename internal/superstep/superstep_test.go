package superstep_test

// The kernel in isolation: a fake link, a fake injector and a scripted phase
// set, no graph and no engine. These pin what the three engines rely on —
// the hook grammar, the audit/checkpoint failure exits, and the §3.6
// fault → restore → replay protocol with its recovery budget.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cyclops/internal/graph"
	"cyclops/internal/metrics"
	"cyclops/internal/obs"
	"cyclops/internal/obs/span"
	"cyclops/internal/superstep"
	"cyclops/internal/transport"
)

// fakeLink is a transport whose only behaviour is the error the test plants.
type fakeLink struct {
	matrix *transport.Matrix
	err    error
}

func (l *fakeLink) SerializeNanos(int) int64  { return 0 }
func (l *fakeLink) Matrix() *transport.Matrix { return l.matrix }
func (l *fakeLink) Err() error                { return l.err }

// eventLog records every hook call (and, through the rig, every injector and
// closure call) as one short string, in order.
type eventLog struct {
	events     []string
	recoveries []obs.RecoveryEvent
}

func (l *eventLog) add(format string, args ...any) {
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

func (l *eventLog) count(prefix string) int {
	n := 0
	for _, e := range l.events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

func (l *eventLog) index(event string) int {
	for i, e := range l.events {
		if e == event {
			return i
		}
	}
	return -1
}

func (l *eventLog) OnRunStart(info obs.RunInfo) { l.add("run-start %d", info.Run) }
func (l *eventLog) OnSuperstepStart(step int)   { l.add("step-start %d", step) }

// OnSuperstep logs the record, then the recovery it carries, if any, as an
// event of its own.
func (l *eventLog) OnSuperstep(rec *obs.StepRecord) {
	l.add("step %d units=%v comm=%d violations=%d", rec.Step, rec.Units, rec.Comm.Workers, len(rec.Violations))
	if rec.Recovery != nil {
		l.add("recovery")
		l.recoveries = append(l.recoveries, *rec.Recovery)
	}
}
func (l *eventLog) OnRunEnd(e obs.RunEnd) { l.add("run-end %d %s", e.Step, e.Reason) }

// rig is a kernel over fakes. Its phase set runs bsp's PRS → CMP → SND order
// with trivial bodies and stays "pending" forever; it is its own checkpoint
// store, which restores to superstep 0. Tests override the members they
// script.
type rig struct {
	log    *eventLog
	link   *fakeLink
	step   int
	runSeq int64
	k      *superstep.Kernel
	ps     superstep.PhaseSet
	// saveErr and restoreErr script the checkpoint store's failures.
	saveErr    func(step int) error
	restoreErr error
}

func (r *rig) BeginStep(step int) { r.log.add("arm %d", step) }

func (r *rig) Save(step int) error {
	r.log.add("save %d", step)
	if r.saveErr != nil {
		return r.saveErr(step)
	}
	return nil
}

// Recover restores to superstep 0 and, as an engine's Restore does through
// Shell.Rewind's transport Reset, clears the link's error.
func (r *rig) Recover() error {
	r.log.add("restore")
	if r.restoreErr != nil {
		return r.restoreErr
	}
	r.step, r.link.err = 0, nil
	return nil
}

func newRig(maxSteps int, tune func(*superstep.Config)) *rig {
	const workers = 2
	r := &rig{log: &eventLog{}, link: &fakeLink{matrix: transport.NewMatrix(workers)}}
	cfg := superstep.Config{
		Name: "fake", Workers: workers, Vertices: 4, Hooks: r.log, Link: r.link, Injector: r, Checkpoints: r,
		Trace: &metrics.Trace{Engine: "fake", Workers: workers},
		Step:  &r.step, RunSeq: &r.runSeq, MaxSupersteps: maxSteps,
		Info:  func() obs.RunInfo { return obs.RunInfo{Engine: "fake", Workers: workers} },
		Owner: func(v int) int { return v % workers },
	}
	if tune != nil {
		tune(&cfg)
	}
	r.k = superstep.New(cfg)
	body := func(w int) { r.k.Units[w] += int64(w + 1) }
	r.ps = superstep.PhaseSet{
		Step: func() []obs.Violation {
			r.k.Phase(metrics.Parse, body)
			r.k.Phase(metrics.Compute, body)
			r.k.Phase(metrics.Send, body)
			return nil
		},
		Sync:    func(stats *metrics.StepStats) { stats.Active = 1 },
		Pending: func() int64 { return 1 },
	}
	return r
}

func (r *rig) run() error { return r.k.Run(r.ps) }

func TestHookGrammarOnCleanRun(t *testing.T) {
	r := newRig(2, nil)
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	// The baseline is saved before the run is announced.
	want := []string{"save 0", "run-start 1"}
	for step := 0; step < 2; step++ {
		want = append(want,
			fmt.Sprintf("arm %d", step),
			fmt.Sprintf("step-start %d", step),
			// Three rounds each added w+1: the per-worker rows are zeroed
			// between supersteps, not between phases.
			fmt.Sprintf("step %d units=[3 6] comm=2 violations=0", step),
		)
	}
	want = append(want, "run-end 2 "+obs.ReasonMaxSupersteps)
	if got := strings.Join(r.log.events, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("hook sequence:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if r.runSeq != 1 || r.step != 2 {
		t.Fatalf("runSeq=%d step=%d, want 1 and 2", r.runSeq, r.step)
	}
}

func TestPendingAndHaltStopAfterTheBarrier(t *testing.T) {
	r := newRig(10, nil)
	r.ps.Pending = func() int64 { return int64(1 - r.step) } // nothing due after superstep 1
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if r.log.index("run-end 2 "+obs.ReasonNoActive) < 0 {
		t.Fatalf("want no-active after superstep 1:\n%s", strings.Join(r.log.events, "\n"))
	}

	r = newRig(10, nil)
	r.ps.Halt = func(step int, pending int64) bool { return step == 2 && pending == 1 }
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if r.log.index("run-end 3 "+obs.ReasonHalt) < 0 {
		t.Fatalf("want halt after superstep 2:\n%s", strings.Join(r.log.events, "\n"))
	}
}

func TestBeginStopsBeforeAnnouncing(t *testing.T) {
	r := newRig(10, nil)
	r.ps.Pending = nil
	r.ps.Begin = func() bool { return r.step < 1 }
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	// Superstep 1 was armed but never announced, and the counter did not move.
	if r.log.index("arm 1") < 0 || r.log.index("step-start 1") >= 0 ||
		r.log.index("run-end 1 "+obs.ReasonNoActive) < 0 || r.log.count("run-end") != 1 {
		t.Fatalf("hook sequence:\n%s", strings.Join(r.log.events, "\n"))
	}
}

func TestAuditViolationFailsTheRun(t *testing.T) {
	r := newRig(5, nil)
	step := r.ps.Step
	r.ps.Step = func() []obs.Violation {
		step()
		if r.step == 1 {
			return []obs.Violation{{Step: 1, Kind: obs.ViolationReplicaDesync}, {Step: 1, Kind: obs.ViolationDoubleDelivery}}
		}
		return nil
	}
	err := r.run()
	var ae *obs.AuditError
	if !errors.As(err, &ae) || len(ae.Violations) != 2 || !strings.HasPrefix(err.Error(), "fake: ") {
		t.Fatalf("want a wrapped *obs.AuditError with 2 violations, got %v", err)
	}
	// The violating superstep still reports in full — its record carries the
	// violations — and then the run closes, once.
	log := r.log
	record, end := log.index("step 1 units=[3 6] comm=2 violations=2"), log.index("run-end 1 "+obs.ReasonAuditFailed)
	if record < 0 || end != record+1 || end != len(log.events)-1 || log.count("run-end") != 1 {
		t.Fatalf("hook sequence:\n%s", strings.Join(log.events, "\n"))
	}
}

func TestCheckpointCadenceAndSinkError(t *testing.T) {
	sinkErr := errors.New("disk full")
	r := newRig(10, func(c *superstep.Config) { c.CheckpointEvery = 2 })
	r.saveErr = func(step int) error {
		if step == 4 {
			return sinkErr
		}
		return nil
	}
	err := r.run()
	if !errors.Is(err, sinkErr) || !strings.Contains(err.Error(), "fake: checkpoint at step 4") {
		t.Fatalf("want the wrapped sink error, got %v", err)
	}
	// The baseline, then one save per two supersteps, each named by the
	// superstep it starts.
	if got := r.log.count("save "); got != 3 || r.log.index("save 2") < 0 || r.log.index("save 4") < 0 {
		t.Fatalf("saves:\n%s", strings.Join(r.log.events, "\n"))
	}
	if r.log.index("run-end 3 "+obs.ReasonFault) != len(r.log.events)-1 || r.log.count("run-end") != 1 {
		t.Fatalf("hook sequence:\n%s", strings.Join(r.log.events, "\n"))
	}
}

// TestBaselineFailureOpensNoRun: a baseline that cannot be saved fails Run
// before anything is announced, so no observer sees a half-open run.
func TestBaselineFailureOpensNoRun(t *testing.T) {
	sinkErr := errors.New("disk full")
	r := newRig(10, nil)
	r.saveErr = func(int) error { return sinkErr }
	err := r.run()
	if !errors.Is(err, sinkErr) || !strings.HasPrefix(err.Error(), "fake: checkpoint at step 0") {
		t.Fatalf("want the wrapped sink error, got %v", err)
	}
	if strings.Join(r.log.events, "\n") != "save 0" {
		t.Fatalf("hook sequence:\n%s", strings.Join(r.log.events, "\n"))
	}
}

// transientAt plants a transient transport error while superstep `at` runs,
// every time it runs until `times` is used up.
func (r *rig) transientAt(at, times int) {
	step := r.ps.Step
	r.ps.Step = func() []obs.Violation {
		if r.step == at && times > 0 {
			times--
			r.link.err = &transport.Error{Op: "send", Peer: 1, Retryable: true, Err: errors.New("dropped")}
		}
		return step()
	}
}

func TestTransientFaultHealsRestoresAndReplays(t *testing.T) {
	r := newRig(4, nil)
	r.transientAt(2, 1)
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	// The faulty superstep's record goes out after the restore and carries
	// the recovery.
	log := r.log
	restore, record := log.index("restore"), log.index("step 2 units=[3 6] comm=2 violations=0")
	if restore < 0 || record != restore+1 || log.events[record+1] != "recovery" {
		t.Fatalf("want restore, then superstep 2's record with its recovery:\n%s", strings.Join(log.events, "\n"))
	}
	if len(log.recoveries) != 1 {
		t.Fatalf("%d recoveries, want 1", len(log.recoveries))
	}
	got := log.recoveries[0]
	if got.Engine != "fake" || got.Step != 2 || got.ResumedAt != 0 || got.Attempt != 1 ||
		got.Replayed() != 3 || !strings.Contains(got.Cause, "dropped") {
		t.Fatalf("recovery event %+v", got)
	}
	// The faulty superstep still reported in full, then the run replayed from
	// superstep 0 and went on to finish.
	if log.count("step 2 ") != 2 || log.count("step-start 0") != 2 || log.count("step 3 ") != 1 {
		t.Fatalf("replay:\n%s", strings.Join(log.events, "\n"))
	}
	if log.index("run-end 4 "+obs.ReasonMaxSupersteps) != len(log.events)-1 || log.count("run-end") != 1 {
		t.Fatalf("hook sequence:\n%s", strings.Join(log.events, "\n"))
	}
}

func TestRecoveryBudgetExhausted(t *testing.T) {
	const budget = 3 // the kernel's maxRecoveries
	t.Run("default", func(t *testing.T) {
		r := newRig(4, nil)
		r.transientAt(1, 100) // faults on every replay
		err := r.run()
		var te *transport.Error
		if !errors.As(err, &te) || !strings.HasPrefix(err.Error(), "fake: transport: ") {
			t.Fatalf("want the wrapped transport error, got %v", err)
		}
		if got := r.log.count("restore"); got != budget {
			t.Fatalf("%d Recover calls, want %d", got, budget)
		}
		if got := len(r.log.recoveries); got != budget || r.log.recoveries[got-1].Attempt != budget {
			t.Fatalf("recovery events %+v, want %d", r.log.recoveries, budget)
		}
		if r.log.index("run-end 1 "+obs.ReasonFault) != len(r.log.events)-1 || r.log.count("run-end") != 1 {
			t.Fatalf("hook sequence:\n%s", strings.Join(r.log.events, "\n"))
		}
	})
}

func TestUnrecoverableFaults(t *testing.T) {
	fatal := &transport.Error{Op: "send", Peer: -1, Err: transport.ErrClosed}
	transient := &transport.Error{Op: "send", Peer: 1, Retryable: true, Err: errors.New("dropped")}
	restoreFailed := errors.New("checkpoint shape does not match engine")
	noCheckpoints := func(c *superstep.Config) { c.Checkpoints = nil }
	for _, tc := range []struct {
		name       string
		planted    error
		tune       func(*superstep.Config)
		restoreErr error
		want       string
		calls      int
	}{
		{"fatal-error-never-recovers", fatal, nil, nil, "fake: transport: ", 0},
		{"no-recover-configured", transient, noCheckpoints, nil, "fake: transport: ", 0},
		{"restore-fails", transient, nil, restoreFailed, "fake: recovery: ", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(4, tc.tune)
			r.restoreErr = tc.restoreErr
			step := r.ps.Step
			r.ps.Step = func() []obs.Violation { r.link.err = tc.planted; return step() }
			err := r.run()
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want prefix %q", err, tc.want)
			}
			if got := r.log.count("restore"); got != tc.calls {
				t.Fatalf("%d Recover calls, want %d", got, tc.calls)
			}
			// The failed superstep's record is still delivered, without a
			// recovery, and the run closes right after it.
			end := r.log.index("run-end 0 " + obs.ReasonFault)
			if r.log.count("recovery") != 0 || end != len(r.log.events)-1 || r.log.count("run-end") != 1 ||
				r.log.events[end-1] != "step 0 units=[3 6] comm=2 violations=0" {
				t.Fatalf("hook sequence:\n%s", strings.Join(r.log.events, "\n"))
			}
		})
	}
}

// TestFoldedSendShare pins the gas asymmetry: a phase set with no Send phase
// that books its send share itself gets no Parse spans, and its Compute span
// is the round time minus that share.
func TestFoldedSendShare(t *testing.T) {
	spans := &spanLog{eventLog: &eventLog{}}
	r := newRig(1, func(c *superstep.Config) { c.Hooks = spans })
	round := func(w int) {
		time.Sleep(2 * time.Millisecond)
		r.k.Busy[metrics.Send][w] += time.Millisecond
	}
	r.ps.Step = func() []obs.Violation { r.k.Phase(metrics.Compute, round, round); return nil }
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if spans.kinds[span.Parse] != 0 || spans.kinds[span.Compute] != 2 || spans.kinds[span.Send] != 2 {
		t.Fatalf("span kinds %v", spans.kinds)
	}
	for _, s := range spans.spans {
		switch s.Kind {
		case span.Send:
			if s.Dur != 2*time.Millisecond {
				t.Fatalf("send span %v, want the 2ms the rounds booked", s.Dur)
			}
		case span.Compute:
			if s.Dur < 2*time.Millisecond {
				t.Fatalf("compute span %v, want ≥ 4ms of rounds minus the 2ms send share", s.Dur)
			}
		}
	}
}

// spanLog materialises each record's span view.
type spanLog struct {
	*eventLog
	kinds map[span.Kind]int
	spans []span.Span
}

func (l *spanLog) OnSuperstep(rec *obs.StepRecord) {
	if l.kinds == nil {
		l.kinds = map[span.Kind]int{}
	}
	from := len(l.spans)
	l.spans = obs.AppendStepSpans(l.spans, rec.Spans)
	for _, s := range l.spans[from:] {
		l.kinds[s.Kind]++
	}
}

// TestRecordScratchAliasing is TestFrameScratchAliasing for the StepRecord:
// the record is the kernel's scratch, so superstep 1 overwrites every
// per-worker row and the traffic delta superstep 0 reported. A consumer that kept a reference instead of a copy would see its
// superstep 0 change. The Recorder's deterministic sections and the Log's views
// of superstep 0 must be the same whether or not a superstep 1 followed.
func TestRecordScratchAliasing(t *testing.T) {
	record := func(steps int) (*obs.Recorder, *obs.Record) {
		dir := t.TempDir()
		rec, err := obs.NewRecorder(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := newRig(steps, func(c *superstep.Config) { c.Hooks = rec })
		r.ps.Step = func() []obs.Violation {
			n := int64(r.step + 1) // every value differs between the supersteps
			r.k.Phase(metrics.Compute, func(w int) {
				r.k.Units[w], r.k.Active[w], r.k.Sync[w] = 10*n+int64(w), 20*n+int64(w), 30*n+int64(w)
				r.k.HeatMsgs[w] += n
				r.k.Sent[w] = 40*n + int64(w)
				r.link.matrix.Add(w, 1-w, n)
				r.link.matrix.AddWire(w, 1-w, 9*n)
			})
			r.k.Phase(metrics.Parse, func(w int) { r.k.Recv[w] = 50*n + int64(w) })
			return nil
		}
		if err := r.run(); err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		file, err := obs.ReadRecord(dir, rec.Manifests()[0].Run)
		if err != nil {
			t.Fatal(err)
		}
		return rec, file
	}
	one, oneRec := record(1)
	two, twoRec := record(2)

	for _, s := range []obs.Section{obs.SeriesSection, obs.HeatSection, obs.SpansSection} {
		lines := func(r *obs.Record) []string { return strings.Split(strings.TrimSpace(string(r.Raw[s])), "\n") }
		want, got := lines(oneRec), lines(twoRec)
		if s == obs.SpansSection {
			want = want[:len(want)-1] // the one-superstep run's closing run span
		}
		if len(got) <= len(want) || len(want) < 2 {
			t.Fatalf("%s: %d lines for one superstep, %d for two", s, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s line %d changed once superstep 1 ran:\n%s\nwas:\n%s", s, i, got[i], want[i])
			}
		}
		if last := len(want); got[last] == want[last-1] {
			t.Errorf("%s: superstep 1's first line repeats superstep 0's last: %s", s, got[last])
		}
	}
	var oneCSV, twoCSV bytes.Buffer
	if err := one.WriteCommCSV(&oneCSV); err != nil {
		t.Fatal(err)
	}
	if err := two.WriteCommCSV(&twoCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(twoCSV.String(), oneCSV.String()) || twoCSV.Len() == oneCSV.Len() {
		t.Errorf("comm CSV of superstep 0 changed:\n%s\nwas:\n%s", twoCSV.String(), oneCSV.String())
	}
	if rows, want := two.Rows(), one.Rows(); !reflect.DeepEqual(rows[:len(want)], want) || rows[0].ComputeUnits != 10 {
		t.Errorf("heat rows of superstep 0: %+v, were %+v", rows[:len(want)], want)
	}
	if cum := two.Cumulative(); cum.Messages[0][1] != 3 || cum.Wire[1][0] != 27 || cum.Wire[0][1] != 27 {
		t.Errorf("cumulative matrix %+v, want superstep 0's delta plus superstep 1's", cum)
	}
}

// TestPhaseAllocatesNothing: a Team builds its goroutine bodies once, so a
// phase's fan-out allocates nothing per round, with observation off and on,
// and neither does a round whose body fans out again on a per-worker Team of
// 3 (cyclops' T stripes and R receivers).
func TestPhaseAllocatesNothing(t *testing.T) {
	const stripes = 3
	for _, workers := range []int{2, 3} {
		for _, hooks := range []obs.Hooks{nil, obs.Nop{}} {
			k := superstep.New(superstep.Config{Name: "fake", Workers: workers, Vertices: 4, Hooks: hooks})
			body := func(w int) { k.Units[w]++ }
			if a := testing.AllocsPerRun(100, func() { k.Phase(metrics.Compute, body, body) }); a != 0 {
				t.Errorf("%d workers, hooks %T: %v allocations per Phase, want 0", workers, hooks, a)
			}
			if want := int64(2 * 101); k.Units[workers-1] != want {
				t.Errorf("%d workers, hooks %T: last worker ran %d rounds, want %d", workers, hooks, k.Units[workers-1], want)
			}

			hits := make([]int64, workers*stripes)
			teams, inner := make([]*superstep.Team, workers), make([]func(i int), workers)
			for w := range teams {
				teams[w] = superstep.NewTeam(stripes)
				inner[w] = func(i int) { hits[w*stripes+i]++ }
			}
			nested := func(w int) { teams[w].Run(nil, inner[w]) }
			if a := testing.AllocsPerRun(100, func() { k.Phase(metrics.Compute, nested) }); a != 0 {
				t.Errorf("%d workers × %d stripes, hooks %T: %v allocations per Phase, want 0", workers, stripes, hooks, a)
			}
			for i, n := range hits {
				if n != 101 {
					t.Fatalf("%d workers × %d stripes: stripe %d ran %d times, want 101", workers, stripes, i, n)
				}
			}
		}
	}
}

// TestDrainBooksRecv: Drain books into Recv exactly the messages the drain
// returned, Σ len(batch), which are exactly the messages sent to the worker
// that round — on Local in both queue modes and over TCP.
func TestDrainBooksRecv(t *testing.T) {
	const workers = 3
	for _, tc := range []struct {
		name    string
		network transport.Network
		mode    transport.QueueMode
	}{
		{"local-global", transport.InProcess, transport.GlobalQueue},
		{"local-per-sender", transport.InProcess, transport.PerSenderQueue},
		{"tcp", transport.TCPLoopback, transport.PerSenderQueue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec, err := graph.CodecFor[int64]()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := transport.New[int64](tc.network, workers, tc.mode, nil, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			k := superstep.New(superstep.Config{Name: "fake", Workers: workers, Vertices: 4, Link: tr})
			for round := range 3 {
				sent := make([]int64, workers)
				for from := range workers {
					for to := range workers {
						// Uneven batches, some empty, two to one pair in round 1.
						tr.Send(from, to, make([]int64, (from+2*to+round)%4))
						sent[to] += int64((from + 2*to + round) % 4)
						if round == 1 && from == to {
							tr.Send(from, to, make([]int64, 5))
							sent[to] += 5
						}
					}
					tr.FinishRound(from)
				}
				for to := range workers {
					before := k.Recv[to]
					var drained int64
					for _, b := range superstep.Drain(k, tr, to) {
						drained += int64(len(b))
					}
					if got := k.Recv[to] - before; got != drained || got != sent[to] {
						t.Errorf("round %d, worker %d: Drain booked %d messages, returned %d, %d were sent",
							round, to, got, drained, sent[to])
					}
				}
			}
			if err := tr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
