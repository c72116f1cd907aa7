package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck answers "is the benchmark steady on this box?" the way the
// acceptance pipeline asks it: every workload runs `runs` times per set, one
// process per run, run i of every set with seed i, the sets alternating so
// that a slow stretch of the machine lands on all of them. A metric passes
// when no set's quartile spread and no difference between two set medians
// exceeds its bound, and no operation failed.
func selfCheck(sets, runs int, out io.Writer) (bool, error) {
	if sets < 2 || runs < 3 {
		return false, fmt.Errorf("selfcheck needs at least 2 sets of 3 runs, got %d of %d", sets, runs)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	// got[workload][metric][set] = one value per run
	got := make(map[string]map[string][][]float64)
	failedOps := 0
	for _, w := range workloads {
		got[w.name] = make(map[string][][]float64)
		for _, d := range endToEnd {
			got[w.name][d.Name] = make([][]float64, sets)
		}
	}
	for run := 1; run <= runs; run++ {
		for set := 0; set < sets; set++ {
			for _, w := range workloads {
				res, err := runChild(self, w.name, int64(run))
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.name, run, err)
				}
				failedOps += res.Failed
				for name, m := range res.Metrics {
					got[w.name][name][set] = append(got[w.name][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %d/%d %s done\n", run, runs, set+1, sets, w.name)
			}
		}
	}

	ok := failedOps == 0
	fmt.Fprintf(out, "%-22s %-9s %12s %12s %9s %9s %9s %7s\n",
		"workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			series := got[w.name][d.Name]
			var diff, spreadA, spreadB float64
			for i, s := range series {
				spread := quartileSpread(s)
				if i == 0 {
					spreadA = spread
				} else {
					spreadB = math.Max(spreadB, spread)
					diff = math.Max(diff, math.Abs(p50(s)/p50(series[0])-1))
				}
			}
			verdict := "PASS"
			if diff > d.Bound || spreadA > d.Bound || spreadB > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-22s %-9s %12.4f %12.4f %8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				w.name, d.Name, p50(series[0]), p50(series[1]),
				100*diff, 100*spreadA, 100*spreadB, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "ops_failed = %d\n", failedOps)
	return ok, nil
}

// runChild runs one workload in a process of its own and parses the result
// line, the last line of its output.
func runChild(self, workload string, seed int64) (resultLine, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return resultLine{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
