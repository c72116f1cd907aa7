package main

// Fault-injection support for cyclops-run: -fault-seed / -fault-plan arm a
// deterministic fault schedule, which harness.RunWorkload injects at the
// transport boundary with periodic checkpoints plus recovery, so a faulted
// run finishes with the same values as a clean one (§3.6). The checkpoint
// directory is temporary and removed after the run.

import (
	"fmt"
	"io"
	"os"

	"cyclops/internal/fault"
	"cyclops/internal/harness"
)

// newFaultSpec resolves the -fault-seed/-fault-plan/-checkpoint-every flags
// into the harness's fault spec. A plan file wins over a seed; both unset
// means no injection (nil). workers bounds the generated plan's worker ids.
func newFaultSpec(planPath string, seed int64, every, workers int, stderr io.Writer) (*harness.FaultSpec, func(), error) {
	if planPath == "" && seed == 0 {
		return nil, func() {}, nil
	}
	var plan fault.Plan
	if planPath != "" {
		var err error
		if plan, err = fault.Load(planPath); err != nil {
			return nil, nil, fmt.Errorf("-fault-plan %s: %w", planPath, err)
		}
	} else {
		plan = fault.NewPlan(seed, workers, 2, 8, 3)
	}
	dir, err := os.MkdirTemp("", "cyclops-ckpt-*")
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "cyclops-run: injecting fault plan (seed %d, %d faults):\n",
		plan.Seed, len(plan.Faults))
	for _, f := range plan.Faults {
		fmt.Fprintf(stderr, "  %s\n", f)
	}
	return &harness.FaultSpec{Plan: plan, Every: every, Dir: dir},
		func() { os.RemoveAll(dir) }, nil
}
