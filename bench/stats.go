package main

import (
	"fmt"
	"sort"
)

// floors is the least number of timed repetitions per stage. Best-of-K only
// reaches the machine's quiet floor when K is large enough that some rep ran
// undisturbed: on the 2-vCPU reference box min-of-12 spread 2.5 % where a
// single shot spread 119 % (README, "Noise method"). A run below the floor is
// an error, not a quieter run.
type floors struct {
	exec  int // construct + Run repetitions
	load  int // graph.Load and Partition repetitions
	trace int // pipeline repetitions of a traced run
}

var (
	standardFloors = floors{exec: 20, load: 8, trace: 5}
	// smokeFloors is what -smoke and the package tests run with; the numbers
	// such a run prints are not measurements.
	smokeFloors = floors{exec: 2, load: 2, trace: 2}
)

// samples holds the per-repetition wall times of one run, in seconds. A rep
// that failed its correctness check contributes to none of the series.
type samples struct {
	load, partition, construct, run []float64
}

// summary is what one run reports about its timings.
type summary struct {
	SetupS    float64 // Σ of stage minima: load + partition + construct
	ExecS     float64 // min over Engine.Run
	SetupP50S float64 // Σ of stage medians (diagnostic)
	ExecP50S  float64 // median over Engine.Run (diagnostic)
	ExecNoise float64 // ExecP50S/ExecS − 1 (diagnostic)
}

// best is the minimum: the time the stage takes when nothing else runs.
func best(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// p50 is the median (mean of the two middle values for an even count).
func p50(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize reduces the series to the reported numbers, refusing any series
// shorter than its floor.
func summarize(s samples, f floors) (summary, error) {
	for _, st := range []struct {
		stage string
		n, k  int
	}{
		{"load", len(s.load), f.load},
		{"partition", len(s.partition), f.load},
		{"construct", len(s.construct), f.exec},
		{"run", len(s.run), f.exec},
	} {
		if st.n < st.k {
			return summary{}, fmt.Errorf("stage %s has %d timed reps, floor is %d", st.stage, st.n, st.k)
		}
	}
	exec := best(s.run)
	return summary{
		SetupS:    best(s.load) + best(s.partition) + best(s.construct),
		ExecS:     exec,
		SetupP50S: p50(s.load) + p50(s.partition) + p50(s.construct),
		ExecP50S:  p50(s.run),
		ExecNoise: p50(s.run)/exec - 1,
	}, nil
}

// quartileSpread is (Q3 − Q1)/median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (exclusive method) — the spread the
// acceptance pipeline computes over ten runs.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / p50(s)
}
