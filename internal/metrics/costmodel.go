package metrics

import "math"

// CostModel converts per-superstep counts into a modelled superstep time in
// nanoseconds. The constants encode the *ratios* bench/'s per-layer probes
// measure (transport.micro_cyclops_ns_per_msg ≪ transport.micro_hama_ns_per_msg:
// direct apply ≪ queue-and-parse per message; graph.csr_scan_ns_per_edge:
// ~1-2 ns per scanned edge on the reference host), scaled up to include the
// serialisation and wire costs a real cluster pays on top of the raw memory
// operations. The ratios are
// what give Figures 9/11/12 their shape:
//
//   - parsing a message through a locked global queue costs more than
//     applying a Cyclops sync update (serialisation + lock + grouping);
//   - the barrier cost grows with the number of flat participants, while
//     CyclopsMT's hierarchical barrier only pays the machine count at the
//     global level (§5, Figure 12);
//   - compute parallelises across the threads a worker actually has.
type CostModel struct {
	// ComputeUnit is ns per edge scanned in the compute phase.
	ComputeUnit float64
	// SendMsg is ns per message on the sender side (serialise + enqueue).
	SendMsg float64
	// ParseMsg is ns per message on the receive side for queue-and-parse
	// engines (dequeue + decode + group).
	ParseMsg float64
	// ApplyMsg is ns per message for direct-update receivers (Cyclops).
	ApplyMsg float64
	// LockPenalty is extra ns per batch that crosses a contended global
	// queue; it is multiplied by the number of concurrent senders.
	LockPenalty float64
	// BarrierUnit is ns per participant-level of a barrier; a flat barrier
	// over n workers costs BarrierUnit·log2(n)·n, a hierarchical one costs
	// the machine term plus a cheap thread term.
	BarrierUnit float64
	// ThreadBarrierUnit is ns per thread-level of a local (shared-memory)
	// barrier.
	ThreadBarrierUnit float64
	// ReceiverContention is ns per superstep per pair of receiver threads:
	// §6.5 observes that too many message receivers contend on the CPU and
	// the NIC, which is why the paper's best configuration uses only 2
	// receivers out of 8 threads. Modelled as quadratic in the receiver
	// count (R·(R−1) pairs).
	ReceiverContention float64
}

// DefaultCostModel returns constants calibrated to the reference host.
func DefaultCostModel() CostModel {
	return CostModel{
		ComputeUnit:        6,
		SendMsg:            55,
		ParseMsg:           120,
		ApplyMsg:           25,
		LockPenalty:        600,
		BarrierUnit:        4000,
		ThreadBarrierUnit:  400,
		ReceiverContention: 8000,
	}
}

// log2 clamps at 1 so singleton barriers still cost one unit.
func log2(n int) float64 {
	if n <= 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// FlatBarrier models one global barrier over n participants.
func (m CostModel) FlatBarrier(n int) float64 {
	return m.BarrierUnit * log2(n) * float64(n)
}

// HierarchicalBarrier models CyclopsMT's barrier: threads meet on a local
// shared-memory barrier, one delegate per machine enters the global barrier.
func (m CostModel) HierarchicalBarrier(machines, threads int) float64 {
	return m.BarrierUnit*log2(machines)*float64(machines) +
		m.ThreadBarrierUnit*log2(threads)*float64(threads)
}

// Breakdown is a superstep's modelled time split by phase (ns), mirroring
// the CMP / SND / PRS / SYN bars of Figures 10(1) and 12.
type Breakdown struct {
	Compute float64
	Send    float64
	Parse   float64
	Sync    float64
}

// Total sums the phases.
func (b Breakdown) Total() float64 { return b.Compute + b.Send + b.Parse + b.Sync }

// StepCostParts models one superstep phase by phase. computeUnits /
// sendMsgs / recvMsgs are the per-worker maxima (critical path), threads is
// the compute parallelism inside a worker, receivers the receive
// parallelism, globalQueue selects the queue-and-parse receive path with
// lock contention from `senders` concurrent senders, and barrier is the
// already-computed barrier term.
func (m CostModel) StepCostParts(computeUnits, sendMsgs, recvMsgs int64,
	threads, receivers, senders int, globalQueue bool, barrier float64) Breakdown {

	if threads < 1 {
		threads = 1
	}
	if receivers < 1 {
		receivers = 1
	}
	b := Breakdown{
		Compute: m.ComputeUnit * float64(computeUnits) / float64(threads),
		Send:    m.SendMsg * float64(sendMsgs),
		Sync:    barrier,
	}
	if globalQueue {
		// Parsing is single-threaded per worker in Hama, and enqueues from
		// `senders` workers serialise on the receiver's lock.
		b.Parse = m.ParseMsg*float64(recvMsgs) +
			m.LockPenalty*float64(senders)*log2(senders)
	} else {
		b.Parse = m.ApplyMsg*float64(recvMsgs)/float64(receivers) +
			m.ReceiverContention*float64(receivers*(receivers-1))
	}
	return b
}

// StepCost is the scalar total of StepCostParts.
func (m CostModel) StepCost(computeUnits, sendMsgs, recvMsgs int64,
	threads, receivers, senders int, globalQueue bool, barrier float64) float64 {
	return m.StepCostParts(computeUnits, sendMsgs, recvMsgs,
		threads, receivers, senders, globalQueue, barrier).Total()
}
