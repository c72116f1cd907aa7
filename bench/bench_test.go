package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// BENCHMARK.json and the tables in the code declare the same workloads and
// metrics, so that neither can drift from the other.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}

	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(c.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, d := range endToEnd {
		checkName(d.Name)
		got := c.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not allowed", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != largest {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better, with the largest bound; it is %+v", d)
	}

	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		got := c.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not allowed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}

	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the code measures for %d", c.RunSeconds, runSeconds)
	}
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// Every workload runs in both modes at smoke size, passes its correctness
// check, and prints exactly the declared metrics; the traced mode leaves a
// well-formed spans file whose stage spans account for their rep.
func TestSmokeRunsEveryWorkloadInBothModes(t *testing.T) {
	env, err := pinEnvironment()
	if err != nil {
		t.Skip(err)
	}
	cfg := config{seed: 1, sizes: smokeSizes, floors: smokeFloors, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, mode := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			diag, res, err := runOne(w, cfg, mode.traced, env)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, mode.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || diag.OpsFailed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, mode.traced,
					res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
			sort.Strings(got)
			if want := metricNames(mode.defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics %v, declared %v", w.name, mode.traced, got, want)
			}
			if !mode.traced {
				for _, name := range []string{"setup_s", "exec_s", "alloc_mb", "wire_mb", "msgs_k"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want it positive", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			checkSpans(t, w, diag)
		}
	}
}

func checkSpans(t *testing.T, w workload, diag diagnostics) {
	t.Helper()
	blob, err := os.ReadFile(diag.SpansFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(blob, &spans); err != nil {
		t.Fatalf("%s: %v", diag.SpansFile, err)
	}
	stages := map[string]bool{}
	for i, s := range spans {
		if s.ID != i || s.EndNS < s.StartNS || s.Parent >= i || s.Parent < -1 {
			t.Fatalf("%s: malformed span %+v", w.name, s)
		}
		if s.Parent >= 0 && spans[s.Parent].Rep != s.Rep {
			t.Fatalf("%s: span %+v is in another rep than its parent", w.name, s)
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "rep" {
			stages[s.Name] = true
		}
	}
	for _, stage := range []string{"graph.load_text", "partition.partition",
		w.layer + ".construct", w.layer + ".run", w.layer + ".values", w.layer + ".close"} {
		if !stages[stage] {
			t.Errorf("%s: no %s span under a rep", w.name, stage)
		}
	}
	// At full size the stage spans cover over 99 % of their rep (README); a
	// smoke rep lasts a millisecond or two, so the bar is lower here.
	if diag.SpanCover < 0.8 || diag.SpanCover > 1 {
		t.Errorf("%s: stage spans cover %.3f of their rep", w.name, diag.SpanCover)
	}
}
