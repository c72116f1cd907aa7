package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cyclops/internal/obs"
)

// TestHarvesterCapturesAndRotates runs the harvester on a tiny interval long
// enough for several rounds and checks the contract: capture files on disk, a
// parseable index.json, and rotation bounding the retained captures per kind.
func TestHarvesterCapturesAndRotates(t *testing.T) {
	dir := t.TempDir()
	h, err := obs.NewHarvester(dir, obs.HarvesterOptions{
		Interval: 20 * time.Millisecond, CPUWindow: 5 * time.Millisecond, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.OnRunStart(obs.RunInfo{Engine: "harvest-test", Workers: 1})
	h.Start()
	for step := 0; step < 5; step++ {
		h.OnSuperstepStart(step)
		time.Sleep(25 * time.Millisecond)
	}
	h.OnRunEnd(obs.RunEnd{Step: 4, Reason: obs.ReasonHalt})
	h.Stop()
	if err := h.Err(); err != nil {
		t.Fatalf("harvester error: %v", err)
	}

	index := h.Index()
	if len(index) == 0 {
		t.Fatal("no captures after 5 rounds")
	}
	perKind := map[string]int{}
	for _, c := range index {
		perKind[c.Kind]++
		if c.Error != "" {
			t.Errorf("capture %d (%s) failed: %s", c.Seq, c.Kind, c.Error)
			continue
		}
		if c.Engine != "harvest-test" {
			t.Errorf("capture %d engine = %q", c.Seq, c.Engine)
		}
		fi, err := os.Stat(filepath.Join(dir, c.File))
		if err != nil {
			t.Errorf("indexed capture missing on disk: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("capture %s is empty", c.File)
		}
	}
	for kind, n := range perKind {
		if n > 2 {
			t.Errorf("rotation kept %d %s captures, Keep is 2", n, kind)
		}
	}

	// The on-disk index must parse and agree with the in-memory one, and the
	// rotated-out files must actually be gone.
	blob, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []obs.ProfileCapture
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatalf("index.json does not parse: %v", err)
	}
	if len(onDisk) != len(index) {
		t.Errorf("index.json has %d entries, memory has %d", len(onDisk), len(index))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	indexed := map[string]bool{"index.json": true}
	for _, c := range index {
		indexed[c.File] = true
	}
	for _, e := range entries {
		if !indexed[e.Name()] {
			t.Errorf("rotated-out file %s still on disk", e.Name())
		}
	}
}

// TestHarvesterShortRunStillLeavesEvidence: a run shorter than the capture
// interval must not end with an empty profile dir — Stop's final round leaves
// a heap snapshot and the index behind.
func TestHarvesterShortRunStillLeavesEvidence(t *testing.T) {
	dir := t.TempDir()
	h, err := obs.NewHarvester(dir, obs.HarvesterOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h.OnRunStart(obs.RunInfo{Engine: "blink", Workers: 1})
	h.Start()
	h.OnSuperstepStart(3)
	h.Stop()
	if err := h.Err(); err != nil {
		t.Fatalf("harvester error: %v", err)
	}
	index := h.Index()
	if len(index) != 1 || index[0].Kind != "heap" {
		t.Fatalf("final round index = %+v, want one heap capture", index)
	}
	if index[0].Step != 3 {
		t.Errorf("final capture stamped step %d, want 3", index[0].Step)
	}
	if _, err := os.Stat(filepath.Join(dir, index[0].File)); err != nil {
		t.Errorf("final heap capture missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Errorf("index.json missing after short run: %v", err)
	}
}
