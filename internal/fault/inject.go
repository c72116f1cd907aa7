package fault

import (
	"sync"
	"time"

	"cyclops/internal/transport"
)

// Injector applies a Plan at the transport boundary. It wraps any
// transport.Interface: sends afflicted by an armed fault are dropped,
// truncated, or delayed, and the fault is reported as a typed transient
// error through Err — indistinguishable, from the engines' side, from a real
// dropped connection on the RPC transport.
//
// The engine arms the injector at the top of each superstep with BeginStep.
// Each fault fires at most once: after recovery the engine replays the same
// superstep number, and BeginStep must not re-arm a consumed fault or the
// run would crash forever. Reset, which every Restore calls through
// Shell.Rewind, clears the injected error and resets the transport
// underneath.
type Injector[M any] struct {
	inner transport.Interface[M]

	mu    sync.Mutex
	plan  Plan
	spent []bool  // spent[i]: plan.Faults[i] already fired
	armed []Fault // faults live for the current superstep
	err   error
	fired int
}

// Wrap builds an Injector over tr following plan. Until BeginStep arms a
// superstep, the wrapper is transparent.
func Wrap[M any](tr transport.Interface[M], plan Plan) *Injector[M] {
	plan.Faults = append([]Fault(nil), plan.Faults...)
	plan.normalize()
	return &Injector[M]{
		inner: tr,
		plan:  plan,
		spent: make([]bool, len(plan.Faults)),
	}
}

// BeginStep arms the faults scheduled for superstep `step`, consuming them:
// a replayed superstep (after recovery) sees no faults the first run already
// absorbed. Call it from the engine's coordinator before the superstep's
// first send.
func (j *Injector[M]) BeginStep(step int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.armed = j.armed[:0]
	for i, f := range j.plan.Faults {
		if f.Step == step && !j.spent[i] {
			j.spent[i] = true
			j.armed = append(j.armed, f)
			j.fired++
		}
	}
}

// Reset implements transport.Interface: it clears the injected error and
// disarms the current step's faults, so the restore's own traffic (bsp's
// re-sent pending messages) is not afflicted by the fault being recovered
// from, then resets the transport underneath.
func (j *Injector[M]) Reset() error {
	j.mu.Lock()
	j.err = nil
	j.armed = j.armed[:0]
	j.mu.Unlock()
	return j.inner.Reset()
}

// Fired reports how many scheduled faults have fired so far.
func (j *Injector[M]) Fired() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fired
}

// Send applies the armed faults to the batch, then forwards what survives.
func (j *Injector[M]) Send(from, to int, batch []M) {
	j.mu.Lock()
	delay := time.Duration(0)
	drop := false
	for _, f := range j.armed {
		if f.Worker != from {
			continue
		}
		switch f.Kind {
		case Crash:
			// The worker is dead for this superstep: nothing it sends
			// arrives anywhere.
			drop = true
			j.setErrLocked(f)
		case Drop:
			if f.Peer == to {
				drop = true
				j.setErrLocked(f)
			}
		case Corrupt:
			if f.Peer == to && len(batch) > 0 {
				// A mid-frame reset: the head of the batch decoded, the
				// tail is gone. (Truncation, not mutation — a zero-valued
				// message would be a forged well-formed message, which is
				// a different failure class than a torn frame.)
				batch = batch[:len(batch)/2]
				j.setErrLocked(f)
			}
		case Stall:
			delay = max(delay, time.Duration(f.DelayMs)*time.Millisecond)
			j.setErrLocked(f)
		case Slow:
			delay = max(delay, time.Duration(f.DelayMs)*time.Millisecond)
		}
	}
	j.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if drop || len(batch) == 0 {
		return
	}
	j.inner.Send(from, to, batch)
}

func (j *Injector[M]) setErrLocked(f Fault) {
	if j.err == nil {
		j.err = &Error{Fault: f}
	}
}

// Err reports the injected fault if one fired, else the inner transport's
// error.
func (j *Injector[M]) Err() error {
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return j.inner.Err()
}

// FinishRound forwards the round marker unconditionally: a crashed process's
// sockets still deliver their FINs, so barriers complete and the engines
// observe the fault at the barrier instead of hanging in Drain.
func (j *Injector[M]) FinishRound(from int) { j.inner.FinishRound(from) }

// NumEndpoints implements transport.Interface.
func (j *Injector[M]) NumEndpoints() int { return j.inner.NumEndpoints() }

// Drain implements transport.Interface.
func (j *Injector[M]) Drain(to int) [][]M { return j.inner.Drain(to) }

// Stats implements transport.Interface.
func (j *Injector[M]) Stats() *transport.Stats { return j.inner.Stats() }

// Matrix implements transport.Interface.
func (j *Injector[M]) Matrix() *transport.Matrix { return j.inner.Matrix() }

// Close implements transport.Interface.
func (j *Injector[M]) Close() error { return j.inner.Close() }

// SerializeNanos implements transport.Interface.
func (j *Injector[M]) SerializeNanos(from int) int64 { return j.inner.SerializeNanos(from) }

var _ transport.Interface[int] = (*Injector[int])(nil)
