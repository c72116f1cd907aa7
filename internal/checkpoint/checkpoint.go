// Package checkpoint persists engine snapshots (§3.6 fault tolerance). The
// engines produce in-memory State values at barrier points; this package
// writes them to the "underlying storage layer" (a directory standing in for
// the paper's HDFS) as gob files named by superstep, and restores the most
// recent one after a failure.
package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Save writes one snapshot to dir as step-<n>.ckpt: into a temporary file,
// synced to storage, then renamed — so a crash mid-write never leaves a
// half-written file under a checkpoint's name.
func Save[S any](dir string, step int, state S) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := gob.NewEncoder(tmp).Encode(&state); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if err := errors.Join(tmp.Sync(), tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("step-%06d.ckpt", step))
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads the snapshot for one superstep.
func Load[S any](dir string, step int) (S, error) {
	var state S
	f, err := os.Open(filepath.Join(dir, fmt.Sprintf("step-%06d.ckpt", step)))
	if err != nil {
		return state, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(&state); err != nil {
		return state, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return state, nil
}

// Retire removes every checkpoint in dir newer than superstep after.
func Retire(dir string, after int) error {
	steps, err := Steps(dir)
	if err != nil {
		return err
	}
	for _, step := range steps {
		if step > after {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("step-%06d.ckpt", step))); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return nil
}

// Steps lists the supersteps with saved checkpoints, ascending.
func Steps(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "step-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "step-"), ".ckpt"))
		if err != nil {
			continue
		}
		steps = append(steps, n)
	}
	sort.Ints(steps)
	return steps, nil
}

// LoadLatest restores the most recent checkpoint in dir that decodes and
// returns the superstep it loaded: a newest file the storage layer tore falls
// back to the one before it (the engines rewind to the State they are handed,
// so recovery just replays more). The error is the newest file's when none
// decodes.
func LoadLatest[S any](dir string) (S, int, error) {
	var zero S
	steps, err := Steps(dir)
	if err != nil {
		return zero, 0, err
	}
	if len(steps) == 0 {
		return zero, 0, fmt.Errorf("checkpoint: no checkpoints in %s", dir)
	}
	var newest error
	for i := len(steps) - 1; i >= 0; i-- {
		state, err := Load[S](dir, steps[i])
		if err == nil {
			return state, steps[i], nil
		}
		if newest == nil {
			newest = err
		}
	}
	return zero, 0, newest
}
