// Command bench is the repository's wall-clock benchmark: five named
// workloads, each timed stage reported as the minimum over many in-process
// repetitions, and a traced mode that prints one number per layer. README.md
// has the method; BENCHMARK.json at the root of the repository is the
// contract the acceptance pipeline runs it under.
//
//	bash bench/run.sh -workload pr-web-cyclops -seed 1             # end-to-end metrics
//	bash bench/run.sh -workload pr-web-cyclops -seed 1 -trace 1    # per-layer metrics + spans
//	bash bench/run.sh -selfcheck -sets 2 -runs 5                   # is it steady on this box?
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is recorded with every run, so that two result lines can be
// told apart by where they were measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GCPercent  int    `json:"gc_percent"`
}

// pinEnvironment fixes what the timings depend on, whatever GOMAXPROCS and
// GOGC say: the default collector pacing and a single P. With one P the two
// workers of every workload run one after the other, so a wall time is the
// work the engines did; with two it also depends on how much of a second core
// the host grants at that moment, which on the reference box moves exec_s by
// 30 % between runs (README, "Noise method"). The second CPU is still
// required: the kernel's share of the loopback traffic, the runtime's own
// threads and everything else on the box need somewhere to run.
func pinEnvironment() (environment, error) {
	if n := runtime.NumCPU(); n < 2 {
		return environment{}, fmt.Errorf("need at least 2 CPUs, have %d", n)
	}
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	return environment{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), CPU: cpuModel(),
		GOMAXPROCS: 1, GCPercent: 100,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, model, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(model)
		}
	}
	return "unknown"
}

// runSeconds is how long a run measures, and run_seconds in BENCHMARK.json
// (bench_test.go holds the two together). The -seconds flag exists because the
// acceptance pipeline passes it, with this value; the README's stability
// tables hold for this value only.
const runSeconds = 20

// outDir is where a traced run leaves its spans and scratch files: bench/out,
// whether the program is started from the root of the repository (run.sh) or
// from bench/ (go run .).
func outDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

// diagnostics is the line printed before the result line: where and on what
// the run measured, and the numbers that explain the result without being
// end-to-end metrics.
type diagnostics struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Env         environment `json:"env"`
	Vertices    int         `json:"graph_vertices"`
	Edges       int         `json:"graph_edges"`
	Reps        int         `json:"reps"`
	Supersteps  int         `json:"supersteps,omitempty"`
	ExecP50S    float64     `json:"exec_p50_s,omitempty"`
	SetupP50S   float64     `json:"setup_p50_s,omitempty"`
	ExecNoise   float64     `json:"exec_noise,omitempty"`
	OpsAttempts int         `json:"ops_attempted"`
	OpsFailed   int         `json:"ops_failed"`
	SpanCover   float64     `json:"span_cover,omitempty"`
	SpansFile   string      `json:"spans_file,omitempty"`
}

// runOne runs one workload in one mode and returns what to print.
func runOne(w workload, cfg config, traceMode bool, env environment) (diagnostics, resultLine, error) {
	diag := diagnostics{Workload: w.name, Seed: cfg.seed, Env: env}
	if traceMode {
		t, err := trace(w, cfg)
		diag.Vertices, diag.Edges = t.vertices, t.edges
		diag.OpsAttempts, diag.OpsFailed = t.attempted, t.failed
		diag.SpanCover, diag.SpansFile = t.spanCover, t.spansPath
		diag.Reps = t.reps
		if err != nil {
			return diag, resultLine{}, err
		}
		res, err := result(perLayer, t.values, t.attempted, t.failed)
		return diag, res, err
	}
	r, err := measure(w, cfg)
	diag.Vertices, diag.Edges = r.Vertices, r.Edges
	diag.OpsAttempts, diag.OpsFailed = r.Attempted, r.Failed
	diag.Reps, diag.Supersteps = r.Reps, r.Supersteps
	diag.ExecP50S, diag.SetupP50S, diag.ExecNoise = r.ExecP50S, r.SetupP50S, r.ExecNoise
	if err != nil {
		return diag, resultLine{}, err
	}
	res, err := result(endToEnd, values{
		"setup_s": r.SetupS, "exec_s": r.ExecS,
		"alloc_mb": r.AllocMB, "wire_mb": r.WireMB, "msgs_k": r.MsgsK,
	}, r.Attempted, r.Failed)
	return diag, res, err
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the generated inputs; changes nothing else")
		secs      = flag.Float64("seconds", runSeconds, "how long one run measures; the acceptance pipeline passes BENCHMARK.json's run_seconds")
		traceMode = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing spans; 0: end-to-end metrics")
		smoke     = flag.Bool("smoke", false, "tiny inputs, 2 reps per stage, all workloads in both modes: proves the paths run, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times in each of -sets alternating sets and compare the sets against the bounds")
		sets      = flag.Int("sets", 2, "selfcheck: number of sets")
		runs      = flag.Int("runs", 5, "selfcheck: runs per workload per set")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	env, err := pinEnvironment()
	if err != nil {
		fail(err)
	}

	cfg := config{seed: *seed, seconds: *secs, sizes: fullSizes, floors: standardFloors, outDir: outDir()}
	switch {
	case *selfcheck:
		ok, err := selfCheck(*sets, *runs, os.Stdout)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *smoke:
		cfg.seconds, cfg.sizes, cfg.floors = 0, smokeSizes, smokeFloors
		for _, w := range workloads {
			for _, traceMode := range []bool{false, true} {
				if err := runAndPrint(w, cfg, traceMode, env); err != nil {
					fail(err)
				}
			}
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		if err := runAndPrint(w, cfg, *traceMode != 0, env); err != nil {
			fail(err)
		}
	}
}

// runAndPrint prints the diagnostics line, then the result line. A run with a
// failed operation still prints its result, and then fails.
func runAndPrint(w workload, cfg config, traceMode bool, env environment) error {
	diag, res, err := runOne(w, cfg, traceMode, env)
	blob, jerr := json.Marshal(diag)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(blob))
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
