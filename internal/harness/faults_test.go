package harness

import (
	"io"
	"math"
	"testing"

	"cyclops/internal/obs"
)

// TestFaultsRecordsEveryRun: the faults experiment must run under the caller's
// observers — `cyclops-bench -exp faults -record dir` used to record nothing,
// because the faulted runs installed only the experiment's own recovery
// counter. Under a Recorder every engine run leaves a manifest (a fault-free
// baseline and its faulted twin per engine), and the faulted ones carry the
// recovery totals.
func TestFaultsRecordsEveryRun(t *testing.T) {
	rec, err := obs.NewRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := tiny()
	o.Hooks = rec
	if err := Faults(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	ms := rec.Manifests()
	if len(ms) != 6 {
		t.Fatalf("recorded %d runs, want a baseline and a faulted run for each of 3 engines", len(ms))
	}
	for i, m := range ms {
		faulted := i%2 == 1
		if faulted != (m.Recoveries > 0) || faulted != (m.Replayed > 0) {
			t.Errorf("%s (faulted=%v): recoveries %d, replayed_supersteps %d", m.Run, faulted, m.Recoveries, m.Replayed)
		}
		// The flight record shows the replay: the faulted twin ran its
		// baseline's supersteps plus the replayed ones.
		if faulted && m.Supersteps != ms[i-1].Supersteps+m.Replayed {
			t.Errorf("%s: %d supersteps, baseline %d + %d replayed", m.Run, m.Supersteps, ms[i-1].Supersteps, m.Replayed)
		}
	}
}

// TestFloatsEqualIsBitwise: −0 and +0 compare equal under ==, and a NaN never
// equals itself; recovery is held to the exact bits.
func TestFloatsEqualIsBitwise(t *testing.T) {
	nan := math.NaN()
	if floatsEqual([]float64{0}, []float64{math.Copysign(0, -1)}) {
		t.Error("+0 and −0 must differ")
	}
	if !floatsEqual([]float64{1, nan}, []float64{1, nan}) {
		t.Error("a NaN must equal the same NaN")
	}
}
