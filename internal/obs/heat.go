// Heat observatory: per-partition and per-vertex hot-spot attribution.
//
// Every telemetry layer before this one (comm matrices, spans, critpath,
// mem section) stops at worker granularity, so the flight recorder could say
// *which* worker gated a superstep but not *why*. The heat stream carries the
// missing dimension: per-partition per-superstep rows splitting the traffic
// into interior vs boundary and isolating replica-sync volume (the paper's
// §3.4 accounting), plus a deterministic exact top-k hot-vertex set — the
// per-vertex skew signal Fig 11 correlates with edge-cut and replica count.
// Everything here is a count, never a clock: the heat and hotset sections are
// byte-identical across same-seed runs (wall time stays quarantined in
// timings section).
package obs

import "sort"

// HeatPartition is one worker's heat row for one superstep. All fields are
// deterministic counts.
type HeatPartition struct {
	Step   int `json:"step"`
	Worker int `json:"worker"`
	// Active is the number of the worker's vertices that computed this
	// superstep.
	Active int64 `json:"active"`
	// ComputeUnits is the number of edges the worker scanned in compute.
	ComputeUnits int64 `json:"compute_units"`
	// OutInterior/OutBoundary split the worker's sent messages by whether
	// they stayed on-worker (the traffic-matrix diagonal) or crossed a
	// partition boundary; InInterior/InBoundary are the receive side.
	// Interior is identical on both sides by construction.
	OutInterior int64 `json:"out_interior"`
	OutBoundary int64 `json:"out_boundary"`
	InInterior  int64 `json:"in_interior"`
	InBoundary  int64 `json:"in_boundary"`
	// ReplicaSync is the worker's replicated-view maintenance traffic this
	// superstep: replica value syncs (cyclops), mirror apply-pushes (gas);
	// zero for engines without a replicated view (hama).
	ReplicaSync int64 `json:"replica_sync"`
}

// HotVertex is one entry of the cumulative top-k hot-vertex set.
type HotVertex struct {
	// Vertex is the global vertex id, Worker the partition owning its master.
	Vertex int64 `json:"vertex"`
	Worker int   `json:"worker"`
	// Msgs is the cumulative message volume the vertex has caused so far
	// (sends in hama, replica syncs in cyclops, mirror exchanges in gas);
	// Units is its cumulative compute volume (edges scanned).
	Msgs  int64 `json:"msgs"`
	Units int64 `json:"units"`
}

// DefaultHotK is the hot-set size: large enough to expose the power-law head
// Fig 11 cares about.
const DefaultHotK = 16

// AppendHeat appends the superstep's heat rows to dst, one per worker in
// worker order. The diagonal of the traffic delta is interior traffic;
// everything off-diagonal is boundary.
func (r *StepRecord) AppendHeat(dst []HeatPartition) []HeatPartition {
	msgs := r.Comm.Messages
	for w := range r.Active {
		row := HeatPartition{Step: r.Step, Worker: w, Active: r.Active[w], ComputeUnits: r.Units[w]}
		if w < len(msgs) {
			row.OutInterior, row.InInterior = msgs[w][w], msgs[w][w]
			for t, v := range msgs[w] {
				if t != w {
					row.OutBoundary += v
				}
			}
			for f := range msgs {
				if f != w {
					row.InBoundary += msgs[f][w]
				}
			}
		}
		if r.Sync != nil {
			row.ReplicaSync = r.Sync[w]
		}
		dst = append(dst, row)
	}
	return dst
}

// TopHotVertices scans cumulative per-vertex counters and returns the exact
// top-k by (Msgs desc, Vertex asc) — a total order, so ties cannot reorder
// across runs. Vertices with no traffic and no compute are excluded; fewer
// than k qualifying vertices yield a shorter set. ownerOf maps a vertex to
// the worker holding its master.
func TopHotVertices(msgs, units []int64, ownerOf func(v int) int, k int) []HotVertex {
	if k <= 0 {
		return nil
	}
	hot := make([]HotVertex, 0, k+1)
	less := func(a, b HotVertex) bool {
		if a.Msgs != b.Msgs {
			return a.Msgs > b.Msgs
		}
		return a.Vertex < b.Vertex
	}
	for v := range msgs {
		m, u := msgs[v], units[v]
		if m == 0 && u == 0 {
			continue
		}
		cand := HotVertex{Vertex: int64(v), Worker: ownerOf(v), Msgs: m, Units: u}
		if len(hot) == k && !less(cand, hot[k-1]) {
			continue
		}
		i := sort.Search(len(hot), func(i int) bool { return less(cand, hot[i]) })
		hot = append(hot, HotVertex{})
		copy(hot[i+1:], hot[i:])
		hot[i] = cand
		if len(hot) > k {
			hot = hot[:k]
		}
	}
	return hot
}
