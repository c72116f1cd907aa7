package main

import (
	"fmt"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; bench_test.go fails when the two
// differ.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, the same five on every
// workload. The counts repeat exactly, on every run and on every seed
// (topologySeed), so their bounds only leave room for rounding; alloc_mb
// repeats to 0.01 %. The two times carry what the reference box resolves
// (README, "Bounds"), setup_s the largest because the pipeline asks for that.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"exec_s", "s", "lower", 0.20},
	{"alloc_mb", "MB", "lower", 0.02},
	{"wire_mb", "MB", "lower", 0.001},
	{"msgs_k", "k", "lower", 0.001},
}

// perLayer is what a traced run reports, layer = module name. README.md says
// which end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	{Name: "graph.load_text_s", Unit: "s", Better: "lower"},
	{Name: "graph.load_text_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.load_bin_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_scan_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.codec_f64_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "partition.hash_s", Unit: "s", Better: "lower"},
	{Name: "partition.multilevel_s", Unit: "s", Better: "lower"},
	{Name: "partition.layout_s", Unit: "s", Better: "lower"},
	{Name: "partition.edge_cut_frac", Unit: "frac", Better: "lower"},
	{Name: "partition.replication_factor", Unit: "ratio", Better: "lower"},

	{Name: "cyclops.construct_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.ingress_replication_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.ingress_init_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.ingress_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "cyclops.replicas_k", Unit: "k", Better: "lower"},
	{Name: "cyclops.cmp_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.snd_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.syn_s", Unit: "s", Better: "lower"},
	{Name: "cyclops.cmp_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "cyclops.snd_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "cyclops.step_us", Unit: "us", Better: "lower"},
	{Name: "cyclops.phase_cover", Unit: "frac", Better: "higher"},

	{Name: "bsp.construct_s", Unit: "s", Better: "lower"},
	{Name: "bsp.prs_s", Unit: "s", Better: "lower"},
	{Name: "bsp.cmp_s", Unit: "s", Better: "lower"},
	{Name: "bsp.snd_s", Unit: "s", Better: "lower"},
	{Name: "bsp.syn_s", Unit: "s", Better: "lower"},
	{Name: "bsp.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "bsp.phase_cover", Unit: "frac", Better: "higher"},

	{Name: "gas.construct_s", Unit: "s", Better: "lower"},
	{Name: "gas.cmp_s", Unit: "s", Better: "lower"},
	{Name: "gas.syn_s", Unit: "s", Better: "lower"},
	{Name: "gas.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "gas.replication_factor", Unit: "ratio", Better: "lower"},
	{Name: "gas.phase_cover", Unit: "frac", Better: "higher"},

	{Name: "transport.local_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.local_gq_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_wire_b_per_msg", Unit: "B", Better: "lower"},
	{Name: "transport.tcp_empty_round_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_connect_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.micro_hama_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.micro_cyclops_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "algorithms.pagerank_ref_s", Unit: "s", Better: "lower"},
	{Name: "algorithms.sssp_ref_s", Unit: "s", Better: "lower"},

	{Name: "obs.recorder_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// values maps metric names to measurements.
type values map[string]float64

// resultLine is the last line a run prints: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result pairs every metric of defs with its value. A declared metric without
// a value, or a value that is not declared, is a bug in the benchmark, and
// reported as one.
func result(defs []metricDef, v values, attempted, failed int) (resultLine, error) {
	out := resultLine{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	if len(v) != len(defs) {
		var extra []string
		for name := range v {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return out, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return out, nil
}
