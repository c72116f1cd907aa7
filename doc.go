// Package cyclops is a from-scratch Go reproduction of "Computation and
// Communication Efficient Graph Processing with Distributed Immutable View"
// (Chen, Ding, Wang, Chen, Zang, Guan — HPDC 2014).
//
// The system the paper calls Cyclops lives in internal/cyclops; its baseline
// (a Hama-like Pregel clone) in internal/bsp; its comparator (a
// PowerGraph-like GAS engine) in internal/gas. The paper's four workloads
// are in internal/algorithms, the Metis-like partitioner in
// internal/partition, synthetic substitutions of the paper's datasets in
// internal/gen, and the runners that regenerate every evaluation table and
// figure in internal/harness (driven by cmd/cyclops-bench). The wall-clock
// benchmark suite BENCHMARK.json declares is the nested module in bench/.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package cyclops
