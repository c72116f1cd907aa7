package obs

import (
	"fmt"
	"reflect"
	"strings"
)

// The replica-invariant auditor. Cyclops' correctness argument (§3.4) rests
// on three properties of the distributed immutable view that hold by
// construction but are never otherwise checked at runtime:
//
//  1. after the SYN barrier every replica holds exactly its master's
//     published value (the view is consistent),
//  2. each replica received at most one sync message in the superstep
//     (which is what makes contention-free per-sender receipt legal), and
//  3. no message ever travels replica→master (communication is
//     unidirectional).
//
// When an engine's Config.Audit flag is set, the engine verifies its own
// variant of these invariants after each SYN phase (Hama audits message
// conservation, GAS audits mirror coherence) and reports breaches as
// Violation values in the StepRecord; the run then fails with an
// *AuditError.

// Violation kinds reported in StepRecord.Violations.
const (
	// ViolationReplicaDesync: a replica's view value differs from its
	// master's after SYN (Cyclops invariant 1).
	ViolationReplicaDesync = "replica-desync"
	// ViolationDoubleDelivery: a replica received more than one sync message
	// in one superstep (Cyclops invariant 2).
	ViolationDoubleDelivery = "double-delivery"
	// ViolationReplicaToMaster: a sync message targeted a master slot
	// (Cyclops invariant 3 — traffic must be master→replica only).
	ViolationReplicaToMaster = "replica-to-master"
	// ViolationMessageConservation: a Hama superstep drained a different
	// number of envelopes than the previous superstep sent.
	ViolationMessageConservation = "message-conservation"
	// ViolationMirrorDivergence: a GAS mirror's cached value differs from
	// its master's after the superstep's apply/push rounds.
	ViolationMirrorDivergence = "mirror-divergence"
)

// Violation is one invariant breach found by the auditor.
type Violation struct {
	// Engine is the violating engine's trace name.
	Engine string `json:"engine"`
	// Step is the superstep after whose SYN phase the breach was detected.
	Step int `json:"step"`
	// Worker is the worker holding the offending replica/queue; -1 when the
	// breach is not attributable to one worker.
	Worker int `json:"worker"`
	// Vertex is the global vertex id involved; -1 when not applicable.
	Vertex int64 `json:"vertex"`
	// Kind is one of the Violation* constants.
	Kind string `json:"kind"`
	// Detail is a human-readable description of the breach.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s step %d worker %d vertex %d: %s (%s)",
		v.Engine, v.Step, v.Worker, v.Vertex, v.Kind, v.Detail)
}

// AuditError fails a run whose superstep breached an audited invariant.
type AuditError struct {
	Violations []Violation
}

func (e *AuditError) Error() string {
	if len(e.Violations) == 0 {
		return "audit: invariant violated"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d invariant violation(s): %s",
		len(e.Violations), e.Violations[0])
	if len(e.Violations) > 1 {
		fmt.Fprintf(&b, " (+%d more)", len(e.Violations)-1)
	}
	return b.String()
}

// ExactEqual reports whether two values are identical, the equality the
// auditor needs: replicas must hold the master's value bit-for-bit (the sync
// message carries the value verbatim), so no tolerance is involved. For
// comparable message types this is one interface comparison; otherwise it
// falls back to reflect.DeepEqual.
func ExactEqual[T any](a, b T) bool {
	if t := reflect.TypeOf(a); t != nil && t.Comparable() {
		return any(a) == any(b)
	}
	return reflect.DeepEqual(a, b)
}
