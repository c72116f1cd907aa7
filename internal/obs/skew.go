package obs

import (
	"fmt"
	"io"
	"strings"
)

// The skew profile: per-superstep imbalance coefficients — max/mean across
// workers of compute units, sent and received messages, and active vertices
// (StepRecord.Skew) — plus the static replica-placement imbalance from
// RunInfo.WorkerReplicas. A coefficient of 1.0 means perfectly balanced; k
// means the most loaded worker carries k× the average — the quantity behind
// the paper's load-balance discussion (Fig 10(3) per-worker) and Ammar &
// Özsu's per-worker breakdown methodology. The Log keeps one SkewReport per
// run; /metrics renders the latest coefficients as
// cyclops_skew_imbalance{metric=...}.

// SkewStep holds one superstep's imbalance coefficients (max/mean across
// workers; 1.0 when the superstep had no such load at all).
type SkewStep struct {
	Step     int
	Compute  float64
	Sent     float64
	Received float64
	Active   float64
}

// SkewReport is one run's skew profile.
type SkewReport struct {
	Engine  string
	Workers int
	// Replicas is the replica/mirror placement imbalance (max/mean across
	// workers); 1.0 for engines without a replicated view.
	Replicas float64
	Steps    []SkewStep
}

// imbalance is max/mean over xs; 1 when the values sum to zero (a uniformly
// idle metric is balanced, not infinitely skewed). The mean<=0 guard keeps
// the coefficient finite even for pathological inputs (e.g. a counter that
// went negative): every path returns a finite value ≥ 0, never NaN or ±Inf.
func imbalance(xs []int64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, max int64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(xs))
	if mean <= 0 {
		return 1
	}
	return float64(max) / mean
}

// maxSteps reduces a report's steps element-wise to their maxima.
func (r SkewReport) maxSteps() SkewStep {
	var m SkewStep
	for _, s := range r.Steps {
		if s.Compute > m.Compute {
			m.Compute = s.Compute
		}
		if s.Sent > m.Sent {
			m.Sent = s.Sent
		}
		if s.Received > m.Received {
			m.Received = s.Received
		}
		if s.Active > m.Active {
			m.Active = s.Active
		}
	}
	return m
}

// String summarises the report in one line: the worst per-superstep
// coefficient of each metric plus the static replica imbalance.
func (r SkewReport) String() string {
	m := r.maxSteps()
	return fmt.Sprintf(
		"%s: %d workers, %d supersteps, skew max/mean peak: compute %.2f, sent %.2f, received %.2f, active %.2f, replicas %.2f",
		r.Engine, r.Workers, len(r.Steps), m.Compute, m.Sent, m.Received, m.Active, r.Replicas)
}

// WriteTable renders the per-superstep coefficients as an aligned table.
func (r SkewReport) WriteTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "skew profile: %s, %d workers (replica imbalance %.2f)\n",
		r.Engine, r.Workers, r.Replicas)
	fmt.Fprintf(&b, "%6s %9s %9s %9s %9s\n", "step", "compute", "sent", "received", "active")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "%6d %9.2f %9.2f %9.2f %9.2f\n",
			s.Step, s.Compute, s.Sent, s.Received, s.Active)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
