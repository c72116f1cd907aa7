package checkpoint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cyclops/internal/algorithms"
	"cyclops/internal/bsp"
	"cyclops/internal/checkpoint"
	"cyclops/internal/cluster"
	"cyclops/internal/cyclops"
	"cyclops/internal/fault"
	"cyclops/internal/gas"
	"cyclops/internal/gen"
	"cyclops/internal/obs"
)

type demoState struct {
	Step   int
	Values []float64
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := demoState{Step: 4, Values: []float64{1, 2, 3}}
	if err := checkpoint.Save(dir, 4, want); err != nil {
		t.Fatal(err)
	}
	got, err := checkpoint.Load[demoState](dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 4 || len(got.Values) != 3 || got.Values[2] != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := checkpoint.Load[demoState](t.TempDir(), 1); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}

func TestStepsAndLatest(t *testing.T) {
	dir := t.TempDir()
	for _, s := range []int{10, 2, 7} {
		if err := checkpoint.Save(dir, s, demoState{Step: s}); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := checkpoint.Steps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 2 || steps[2] != 10 {
		t.Fatalf("steps = %v", steps)
	}
	st, at, err := checkpoint.LoadLatest[demoState](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 10 || st.Step != 10 {
		t.Fatalf("latest = %d (%+v)", at, st)
	}
	// Retiring everything after 2 leaves 2 the latest.
	if err := checkpoint.Retire(dir, 2); err != nil {
		t.Fatal(err)
	}
	if steps, err := checkpoint.Steps(dir); err != nil || len(steps) != 1 || steps[0] != 2 {
		t.Fatalf("after Retire(2): %v %v", steps, err)
	}
}

func TestStepsEmptyAndAbsentDir(t *testing.T) {
	dir := t.TempDir()
	steps, err := checkpoint.Steps(dir)
	if err != nil || steps != nil {
		t.Fatalf("empty dir: %v %v", steps, err)
	}
	steps, err = checkpoint.Steps(filepath.Join(dir, "missing"))
	if err != nil || steps != nil {
		t.Fatalf("absent dir: %v %v", steps, err)
	}
	if _, _, err := checkpoint.LoadLatest[demoState](dir); err == nil {
		t.Fatal("LoadLatest on empty dir must error")
	}
}

// Failure-injection end-to-end: kill a PageRank run mid-flight, restore the
// latest checkpoint into a fresh engine, and verify the final ranks match an
// uninterrupted run exactly.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	g := gen.PowerLaw(300, 4, 8)
	dir := t.TempDir()
	const iters = 12

	mk := func(maxSteps int, dir string, ckptEvery int) (*cyclops.Engine[float64, float64], error) {
		return cyclops.New[float64, float64](g, algorithms.PageRankCyclops{},
			cyclops.Config[float64, float64]{
				Cluster:         cluster.Flat(2, 2),
				MaxSupersteps:   maxSteps,
				CheckpointDir:   dir,
				CheckpointEvery: ckptEvery,
			})
	}

	// Uninterrupted run → ground truth.
	full, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}

	// "Crashing" run: checkpoint every 4 steps after the step-0 baseline, die
	// at step 7 (after the step-4 checkpoint) and abandon the engine, as a
	// machine failure would.
	crash, err := mk(7, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crash.Run(); err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh engine and finish.
	state, at, err := checkpoint.LoadLatest[cyclops.State[float64, float64]](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Fatalf("latest checkpoint at %d, want 4", at)
	}
	rec, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(state); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	wantVals, gotVals := full.Values(), rec.Values()
	for v := range wantVals {
		if wantVals[v] != gotVals[v] {
			t.Fatalf("vertex %d: %g vs %g after recovery", v, wantVals[v], gotVals[v])
		}
	}
}

// TestBSPCrashRecoveryRoundTrip is the bsp.State analogue of the cyclops
// end-to-end test: the snapshot goes through Save's gob encoding and back
// (including the Pending message queues), then restores into a fresh engine
// whose final values must match an uninterrupted run exactly.
func TestBSPCrashRecoveryRoundTrip(t *testing.T) {
	g := gen.PowerLaw(300, 4, 8)
	dir := t.TempDir()
	const iters = 12

	mk := func(maxSteps int, dir string, ckptEvery int) (*bsp.Engine[float64, float64], error) {
		return bsp.New[float64, float64](g, algorithms.PageRankBSP{},
			bsp.Config[float64, float64]{
				Cluster:         cluster.Flat(2, 2),
				MaxSupersteps:   maxSteps,
				CheckpointDir:   dir,
				CheckpointEvery: ckptEvery,
			})
	}

	full, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}

	crash, err := mk(7, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crash.Run(); err != nil {
		t.Fatal(err)
	}

	state, at, err := checkpoint.LoadLatest[bsp.State[float64, float64]](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Fatalf("latest checkpoint at %d, want 4", at)
	}
	rec, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(state); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	wantVals, gotVals := full.Values(), rec.Values()
	for v := range wantVals {
		if wantVals[v] != gotVals[v] {
			t.Fatalf("vertex %d: %g vs %g after recovery", v, wantVals[v], gotVals[v])
		}
	}
}

// TestGASCrashRecoveryRoundTrip does the same for gas.State: the snapshot
// holds master values only, and Restore must rebuild every mirror's cached
// copy from it (§3.6) before the run resumes.
func TestGASCrashRecoveryRoundTrip(t *testing.T) {
	g := gen.PowerLaw(300, 4, 8)
	dir := t.TempDir()
	const iters = 12

	mk := func(maxSteps int, dir string, ckptEvery int) (*gas.Engine[algorithms.PRValue, float64], error) {
		return gas.New[algorithms.PRValue, float64](g,
			algorithms.NewPageRankGAS(g, iters, 1e-12),
			gas.Config[algorithms.PRValue, float64]{
				Cluster:         cluster.Flat(2, 2),
				Partitioner:     gas.RandomVertexCut{},
				MaxSupersteps:   maxSteps,
				ValCodec:        algorithms.PRValueCodec{},
				CheckpointDir:   dir,
				CheckpointEvery: ckptEvery,
			})
	}

	full, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}

	crash, err := mk(7, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crash.Run(); err != nil {
		t.Fatal(err)
	}

	state, at, err := checkpoint.LoadLatest[gas.State[algorithms.PRValue]](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 4 {
		t.Fatalf("latest checkpoint at %d, want 4", at)
	}
	rec, err := mk(iters, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(state); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	wantVals, gotVals := algorithms.Ranks(full.Values()), algorithms.Ranks(rec.Values())
	for v := range wantVals {
		if wantVals[v] != gotVals[v] {
			t.Fatalf("vertex %d: %g vs %g after recovery", v, wantVals[v], gotVals[v])
		}
	}
}

// TestStrayTempFileIgnored simulates a crash in the middle of Save: the
// abandoned ckpt-* temp file must be invisible to Steps and LoadLatest, which
// only trust fully renamed step-NNNNNN.ckpt files.
func TestStrayTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := checkpoint.Save(dir, 3, demoState{Step: 3, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	// Half-written temp from a crashed writer, exactly as CreateTemp names it.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-1234567890"), []byte("partial gob"), 0o600); err != nil {
		t.Fatal(err)
	}
	steps, err := checkpoint.Steps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0] != 3 {
		t.Fatalf("steps = %v, want [3]", steps)
	}
	st, at, err := checkpoint.LoadLatest[demoState](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 3 || st.Step != 3 {
		t.Fatalf("latest = %d (%+v), want step 3", at, st)
	}
}

func TestSaveErrorPaths(t *testing.T) {
	// MkdirAll failure: a path under a regular file (fails even for root,
	// unlike permission bits).
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(filepath.Join(f, "sub"), 1, demoState{}); err == nil {
		t.Fatal("mkdir under a file must fail")
	}
}

func TestLoadCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "step-000002.ckpt")
	if err := os.WriteFile(path, []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load[demoState](dir, 2); err == nil {
		t.Fatal("corrupt checkpoint must fail to decode")
	}
}

func TestStepsIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "step-abc.ckpt", "step-7.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint.Save(dir, 7, demoState{Step: 7}); err != nil {
		t.Fatal(err)
	}
	steps, err := checkpoint.Steps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0] != 7 {
		t.Fatalf("steps = %v", steps)
	}
}

// TestLoadLatestFallsBackPastTornCheckpoint: a newest checkpoint that does not
// decode (truncated to nothing, as a crash between rename and data reaching
// the disk leaves it) is skipped for the next-older good one, and the step
// returned is the one actually loaded.
func TestLoadLatestFallsBackPastTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for _, s := range []int{2, 4, 6} {
		if err := checkpoint.Save(dir, s, demoState{Step: s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(filepath.Join(dir, "step-000006.ckpt"), 0); err != nil {
		t.Fatal(err)
	}
	st, at, err := checkpoint.LoadLatest[demoState](dir)
	if err != nil {
		t.Fatal(err)
	}
	if at != 4 || st.Step != 4 {
		t.Fatalf("latest = %d (%+v), want the step-4 checkpoint", at, st)
	}
	// Nothing left that decodes: the error names the newest file's failure.
	for _, s := range []int{2, 4} {
		if err := os.Truncate(filepath.Join(dir, fmt.Sprintf("step-%06d.ckpt", s)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := checkpoint.LoadLatest[demoState](dir); err == nil {
		t.Fatal("LoadLatest over only torn checkpoints must error")
	}
}

// tearer tears the newest checkpoint once, as the superstep the fault is
// planted in starts — after the last save before the fault, before the engine
// asks for its state back — and records how far each recovery rewound.
type tearer struct {
	obs.Nop
	t         *testing.T
	dir       string
	faultAt   int
	tornAt    int
	resumedAt []int
}

func (r *tearer) OnSuperstepStart(step int) {
	if step != r.faultAt || r.tornAt != 0 {
		return
	}
	steps, err := checkpoint.Steps(r.dir)
	if err != nil || len(steps) < 2 {
		r.t.Fatalf("checkpoints at the fault: %v, %v", steps, err)
	}
	r.tornAt = steps[len(steps)-1]
	if err := os.Truncate(filepath.Join(r.dir, fmt.Sprintf("step-%06d.ckpt", r.tornAt)), 0); err != nil {
		r.t.Fatal(err)
	}
}

func (r *tearer) OnSuperstep(rec *obs.StepRecord) {
	if e := rec.Recovery; e != nil {
		r.resumedAt = append(r.resumedAt, e.ResumedAt)
	}
}

// TestRecoveredRunSurvivesTornLatestCheckpoint is the faults experiment's
// shape with a damaged directory: a worker dies at superstep 5, and by the
// time the engine asks for its state back the newest checkpoint has been torn.
// Recovery rewinds to the older one instead and the run still ends on exactly
// the fault-free values.
func TestRecoveredRunSurvivesTornLatestCheckpoint(t *testing.T) {
	g := gen.PowerLaw(300, 4, 8)
	cfg := cyclops.Config[float64, float64]{Cluster: cluster.Flat(2, 2), MaxSupersteps: 12}
	clean, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Run(); err != nil {
		t.Fatal(err)
	}

	seen := &tearer{t: t, dir: t.TempDir(), faultAt: 5}
	cfg.Hooks, cfg.CheckpointDir, cfg.CheckpointEvery = seen, seen.dir, 2
	cfg.FaultPlan = &fault.Plan{Faults: []fault.Fault{{Kind: fault.Crash, Step: seen.faultAt, Worker: 0, Peer: -1}}}
	faulted, err := cyclops.New[float64, float64](g, algorithms.PageRankCyclops{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulted.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen.resumedAt) != 1 || seen.resumedAt[0] >= seen.tornAt {
		t.Fatalf("recoveries resumed at %v; the torn checkpoint was superstep %d's", seen.resumedAt, seen.tornAt)
	}
	want, got := clean.Values(), faulted.Values()
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("vertex %d: %g vs %g after recovering past the torn checkpoint", v, want[v], got[v])
		}
	}
}
