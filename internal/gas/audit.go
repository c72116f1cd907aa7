package gas

import (
	"fmt"

	"cyclops/internal/obs"
)

// The mirror-coherence auditor (Config.Audit). PowerGraph's vertex-cut keeps
// one master per vertex and refreshes every mirror through the apply push
// (round 3→4 of each superstep); masters that were not applied did not
// change, so their mirrors' caches must still match. A mirror that diverges
// from its master means a push was lost, forged, or a cache was mutated out
// of band — the GAS counterpart of Cyclops' replica desync.

// auditMaxViolations caps how many violations one sweep collects, so a
// systemic fault doesn't flood the run log and its narration: the run fails
// on the first violation regardless.
const auditMaxViolations = 64

// auditMirrors verifies, after the superstep's rounds complete, that every
// mirror's cached value exactly equals its master's. Exact equality is the
// right test — apply pushes carry the master's value verbatim.
func (e *Engine[V, G]) auditMirrors() []obs.Violation {
	var out []obs.Violation
	for w, ws := range e.ws {
		for s := range ws.verts {
			lv := &ws.verts[s]
			if !lv.master || ws.mirrors.RowLen(s) == 0 {
				continue
			}
			for _, m := range ws.mirrors.Row(s) {
				if obs.ExactEqual(ws.vals[s], e.ws[m.worker].vals[m.slot]) {
					continue
				}
				out = append(out, obs.Violation{
					Engine: e.Trace().Engine,
					Step:   e.Superstep(),
					Worker: int(m.worker),
					Vertex: int64(lv.id),
					Kind:   obs.ViolationMirrorDivergence,
					Detail: fmt.Sprintf(
						"mirror at worker %d slot %d diverges from master at worker %d slot %d",
						m.worker, m.slot, w, s),
				})
				if len(out) >= auditMaxViolations {
					return out
				}
			}
		}
	}
	return out
}
