package harness

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"cyclops/internal/obs"
)

// Shape assertions for the ablation experiments: each must demonstrate the
// effect it was built to isolate, at tiny scale.

func TestAblationQueueShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationQueue(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "global-locked (Hama)") || !strings.Contains(out, "per-sender (Cyclops-style)") {
		t.Fatalf("missing rows:\n%s", out)
	}
	// The per-sender row must report zero locked enqueues; the global row
	// must not.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "per-sender") && !strings.Contains(line, " 0 ") {
			t.Errorf("per-sender row should have 0 locked enqueues: %q", line)
		}
	}
}

func TestAblationCombinerShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationCombiner(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	offMsgs, sumMsgs := extractFirstInt(t, out, "off"), extractFirstInt(t, out, "sum")
	if sumMsgs >= offMsgs {
		t.Fatalf("combiner did not reduce messages: %d vs %d\n%s", sumMsgs, offMsgs, out)
	}
}

func TestAblationActivationShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationActivation(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	eager := extractFirstInt(t, out, "eager")
	dynamic := extractFirstInt(t, out, "dynamic")
	if dynamic >= eager {
		t.Fatalf("dynamic activation did not reduce vertex-steps: %d vs %d\n%s",
			dynamic, eager, out)
	}
}

func TestAblationDetectorsShape(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationDetectors(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"global error (Hama)", "local error (Cyclops)", "converged-proportion 99%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing detector row %q:\n%s", want, out)
		}
	}
}

// extractFirstInt returns the first integer field of the table row whose
// label starts with prefix.
func extractFirstInt(t *testing.T, out, prefix string) int64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		for _, f := range fields[1:] {
			var v int64
			ok := len(f) > 0
			for _, c := range f {
				if c < '0' || c > '9' {
					ok = false
					break
				}
				v = v*10 + int64(c-'0')
			}
			if ok {
				return v
			}
		}
	}
	t.Fatalf("no integer row starting with %q in:\n%s", prefix, out)
	return 0
}

func TestFig4ModelOrdering(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4Models(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	assertFig4Ordering(t, buf.String())
}

// assertFig4Ordering checks the paper's Figure 4 ordering of messages per
// vertex-update: Cyclops cheapest, GraphLab (locks + bidirectional traffic)
// most expensive.
func assertFig4Ordering(t *testing.T, out string) {
	t.Helper()
	perUpdate := func(prefix string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			fields := strings.Fields(line)
			var v float64
			if _, err := fmt.Sscanf(fields[len(fields)-1], "%f", &v); err == nil {
				return v
			}
		}
		t.Fatalf("no row for %q in:\n%s", prefix, out)
		return 0
	}
	cyc, bspV := perUpdate("cyclops"), perUpdate("pregel/bsp")
	pg, gl := perUpdate("powergraph"), perUpdate("graphlab")
	if !(cyc < bspV && bspV < pg && pg < gl) {
		t.Fatalf("per-update ordering broken: cyclops=%.2f bsp=%.2f pg=%.2f graphlab=%.2f",
			cyc, bspV, pg, gl)
	}
}

// TestFig4Deterministic: every line of Fig 4 — the GraphLab one included, now
// that its counts come from a static cost table and a FIFO worklist — is a
// function of (scale, seed): two runs print the same bytes.
func TestFig4Deterministic(t *testing.T) {
	var first, second bytes.Buffer
	for _, buf := range []*bytes.Buffer{&first, &second} {
		if err := Fig4Models(tiny(), buf); err != nil {
			t.Fatal(err)
		}
	}
	if first.String() != second.String() {
		t.Fatalf("two Fig 4 runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	assertFig4Ordering(t, first.String())
}

// runCounter counts the engine runs an experiment's observers are shown.
type runCounter struct {
	obs.Nop
	starts, ends int
}

func (c *runCounter) OnRunStart(obs.RunInfo) { c.starts++ }
func (c *runCounter) OnRunEnd(obs.RunEnd)    { c.ends++ }

// TestEveryExperimentRunIsObserved: the experiments that configure an engine
// themselves still run it through the harness's one wiring, so -verbose,
// -record and -audit see every run they print.
func TestEveryExperimentRunIsObserved(t *testing.T) {
	for id, runs := range map[string]int{"fig4": 3, "ablation.queue": 2, "ablation.combiner": 2,
		"ablation.activation": 2, "ablation.detect": 3} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		o, hooks := tiny(), &runCounter{}
		o.Hooks, o.Audit = hooks, true
		if err := e.Run(o, io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if hooks.starts != runs || hooks.ends != runs {
			t.Errorf("%s: %d run starts, %d run ends; it prints %d engine runs",
				id, hooks.starts, hooks.ends, runs)
		}
	}
}
