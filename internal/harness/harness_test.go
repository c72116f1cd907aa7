package harness

import (
	"bytes"
	"strings"
	"testing"

	"cyclops/internal/partition"
)

// tiny returns options small enough that every experiment runs in seconds.
func tiny() Options {
	o := DefaultOptions()
	o.Scale = 0.05
	o.WorkersPerMachine = 2
	o.Machines = 3
	return o
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// One per paper artifact: 3 panels of fig3 are one runner; 13 total
	// figure/table artifacts map to 16 runners.
	want := []string{"fig3", "fig4", "fig9.1", "fig9.2", "fig10.1", "fig10.2", "fig10.3",
		"fig11.1", "fig11.2", "fig11.3", "fig12", "fig13.1", "fig13.2", "fig13.3",
		"table2", "table3", "table4"}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Lookup("fig9.1"); !ok {
		t.Error("Lookup failed for fig9.1")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup must fail for unknown ids")
	}
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tiny(), &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRunTripleShapes(t *testing.T) {
	o := tiny()
	hama, cyc, mt, err := runTriple(o, workloadSpec{"PR", "gweb"}, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline shape: Cyclops beats Hama on the cost model, and
	// CyclopsMT beats flat Cyclops; messages shrink dramatically.
	if cyc.ModelMs >= hama.ModelMs {
		t.Errorf("cyclops model %.2f !< hama model %.2f", cyc.ModelMs, hama.ModelMs)
	}
	if mt.ModelMs >= cyc.ModelMs {
		t.Errorf("cyclopsmt model %.2f !< cyclops model %.2f", mt.ModelMs, cyc.ModelMs)
	}
	if cyc.Messages*2 > hama.Messages {
		t.Errorf("cyclops messages %d not ≪ hama %d", cyc.Messages, hama.Messages)
	}
	// MT holds fewer replicas than flat Cyclops (fewer partitions).
	if mt.Replication >= cyc.Replication {
		t.Errorf("mt replication %.2f !< flat %.2f", mt.Replication, cyc.Replication)
	}
	// And the ranks agree (approximately: global vs local termination).
	for v := range hama.Values {
		if abs64(hama.Values[v]-cyc.Values[v]) > 1e-4 {
			t.Fatalf("rank mismatch at %d: %g vs %g", v, hama.Values[v], cyc.Values[v])
		}
	}
}

func TestAllWorkloadsAllEnginesAgree(t *testing.T) {
	o := tiny()
	for _, spec := range paperWorkloads() {
		hama, cyc, mt, err := runTriple(o, spec, partition.Hash{})
		if err != nil {
			t.Fatalf("%s: %v", spec.label(), err)
		}
		for v := range hama.Values {
			if abs64(hama.Values[v]-cyc.Values[v]) > 1e-5 ||
				abs64(hama.Values[v]-mt.Values[v]) > 1e-5 {
				t.Fatalf("%s: value mismatch at %d: hama=%g cyclops=%g mt=%g",
					spec.label(), v, hama.Values[v], cyc.Values[v], mt.Values[v])
			}
		}
	}
}

func TestFig9TableMentionsAllWorkloads(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig9Speedup(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"PR/amazon", "PR/wiki", "ALS/syn-gl", "CD/dblp", "SSSP/roadca"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig9 output missing %q:\n%s", frag, out)
		}
	}
}

func TestTable4ReportsBothPartitions(t *testing.T) {
	var buf bytes.Buffer
	if err := Table4PowerGraph(tiny(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hash-based partition") || !strings.Contains(out, "heuristic partition") {
		t.Fatalf("table4 output incomplete:\n%s", out)
	}
}

func TestRunWorkloadRejectsUnknown(t *testing.T) {
	o := tiny()
	ctx, err := (workloadSpec{"PR", "gweb"}).prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload("quantum", "PR", ctx.graph, o.flat(), partition.Hash{}, ctx.params); err == nil {
		t.Error("unknown engine must error")
	}
	if _, err := RunWorkload("hama", "SAT", ctx.graph, o.flat(), partition.Hash{}, ctx.params); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	n := o.normalize()
	if n.Scale != 1.0 || n.Machines != 6 || n.WorkersPerMachine != 8 || n.Eps != 1e-9 {
		t.Fatalf("normalize = %+v", n)
	}
	if n.flat().Workers() != 48 || n.mt().Workers() != 6 {
		t.Fatal("topology helpers wrong")
	}
}
