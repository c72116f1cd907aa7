package main

import (
	"math"
	"strings"
	"testing"
)

func TestBestAndP50(t *testing.T) {
	for _, c := range []struct {
		name      string
		xs        []float64
		best, p50 float64
	}{
		{"single", []float64{3}, 3, 3},
		{"odd", []float64{5, 1, 3}, 1, 3},
		{"even", []float64{4, 1, 3, 2}, 1, 2.5},
		{"ties", []float64{2, 2, 2, 2}, 2, 2},
	} {
		if got := best(c.xs); got != c.best {
			t.Errorf("%s: best = %v, want %v", c.name, got, c.best)
		}
		if got := p50(c.xs); got != c.p50 {
			t.Errorf("%s: p50 = %v, want %v", c.name, got, c.p50)
		}
	}
}

// steady returns n samples around base with a small deterministic ripple, the
// smallest of them exactly base.
func steady(n int, base float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + 0.01*float64(i%4))
	}
	return xs
}

func steadySamples() samples {
	return samples{
		load:      steady(8, 0.40),
		partition: steady(8, 0.01),
		construct: steady(20, 0.20),
		run:       steady(20, 0.30),
	}
}

// A noisy box doubles some reps and runs the first few slow; neither may move
// what the run reports.
func TestSummaryIgnoresSpikesAndSlowPrefix(t *testing.T) {
	quiet, err := summarize(steadySamples(), standardFloors)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.40 + 0.01 + 0.20; math.Abs(quiet.SetupS-want) > 1e-12 {
		t.Errorf("setup_s = %v, want the sum of the stage minima %v", quiet.SetupS, want)
	}
	if quiet.ExecS != 0.30 {
		t.Errorf("exec_s = %v, want 0.30", quiet.ExecS)
	}

	noisy := steadySamples()
	for _, series := range [][]float64{noisy.load, noisy.partition, noisy.construct, noisy.run} {
		for i := range series {
			switch {
			case i < 3:
				series[i] *= 1.35 // slow prefix
			case i%3 == 0:
				series[i] *= 2 // spike
			}
		}
	}

	got, err := summarize(noisy, standardFloors)
	if err != nil {
		t.Fatal(err)
	}
	if got.SetupS != quiet.SetupS || got.ExecS != quiet.ExecS {
		t.Errorf("spikes moved the report: setup_s %v → %v, exec_s %v → %v",
			quiet.SetupS, got.SetupS, quiet.ExecS, got.ExecS)
	}
	if got.ExecP50S <= quiet.ExecP50S {
		t.Errorf("exec_p50_s = %v, want it above the quiet %v: the median is what the noise moves",
			got.ExecP50S, quiet.ExecP50S)
	}
	if got.ExecNoise <= quiet.ExecNoise {
		t.Errorf("exec_noise = %v, want it above the quiet %v", got.ExecNoise, quiet.ExecNoise)
	}
}

func TestSummaryRefusesShortSeries(t *testing.T) {
	for _, c := range []struct {
		stage string
		cut   func(*samples)
	}{
		{"load", func(s *samples) { s.load = s.load[:7] }},
		{"partition", func(s *samples) { s.partition = s.partition[:7] }},
		{"construct", func(s *samples) { s.construct = s.construct[:19] }},
		{"run", func(s *samples) { s.run = s.run[:19] }},
	} {
		s := steadySamples()
		c.cut(&s)
		_, err := summarize(s, standardFloors)
		if err == nil || !strings.Contains(err.Error(), "stage "+c.stage) {
			t.Errorf("one %s rep below the floor: err = %v, want an error naming the stage", c.stage, err)
		}
		if _, err := summarize(s, smokeFloors); err != nil {
			t.Errorf("smoke floors refused %s: %v", c.stage, err)
		}
	}
}

func TestExecNoise(t *testing.T) {
	s := steadySamples()
	s.run = []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}
	got, err := summarize(s, standardFloors)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExecP50S != 1.5 || got.ExecNoise != 0.5 {
		t.Errorf("p50 = %v, noise = %v, want 1.5 and 0.5", got.ExecP50S, got.ExecNoise)
	}
}

// The quartiles must be those of Python's statistics.quantiles(xs, n=4).
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		// quantiles → [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// quantiles → [1.5, 3, 4.5]
		{[]float64{5, 1, 4, 2, 3}, (4.5 - 1.5) / 3},
		{[]float64{2, 2, 2, 2, 2}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
