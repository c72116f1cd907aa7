package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"cyclops/internal/metrics"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the engines are not instrumented). Parent is the id of the enclosing
// span, -1 for a rep; spans of one repetition share Rep. A span's self time
// is its duration minus what its children cover.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced mode runs the same code.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent, rep int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans), Name: name, StartNS: time.Since(l.t0).Nanoseconds(), Parent: parent, Rep: rep,
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].EndNS = time.Since(l.t0).Nanoseconds()
}

// addPhases attaches the per-superstep phase durations the engine returned in
// its trace as children of its run span, laid end to end from the span's
// start (the trace carries durations, not timestamps). What they leave
// uncovered is the run span's self time: fan-out, hooks, trace assembly.
func (l *spanLog) addPhases(run int, layer string, tr *metrics.Trace) {
	if l == nil {
		return
	}
	at := l.spans[run].StartNS
	for _, st := range tr.Steps {
		for ph, d := range st.Durations {
			if d == 0 {
				continue
			}
			name := layer + "." + metrics.Phase(ph).String()
			l.spans = append(l.spans, span{
				ID: len(l.spans), Name: name, StartNS: at, EndNS: at + d.Nanoseconds(),
				Parent: run, Rep: l.spans[run].Rep,
			})
			at += d.Nanoseconds()
		}
	}
}

// cover reports, for each rep span, the share of it that its direct children
// account for, and returns the smallest share.
func (l *spanLog) cover() float64 {
	children := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 && l.spans[s.Parent].Parent < 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	worst := 1.0
	for id, sum := range children {
		if c := float64(sum) / float64(l.spans[id].EndNS-l.spans[id].StartNS); c < worst {
			worst = c
		}
	}
	return worst
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
