package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// HarvesterOptions tunes the continuous profiling harvester. The zero value
// gets defaults suitable for runs lasting seconds to minutes.
type HarvesterOptions struct {
	// Interval between capture rounds (default 10s).
	Interval time.Duration
	// CPUWindow is how long each round's CPU profile samples (default 1s;
	// clamped below Interval).
	CPUWindow time.Duration
	// Keep bounds the retained captures per kind; older files are deleted
	// as new ones rotate in (default 16).
	Keep int
}

func (o HarvesterOptions) normalize() HarvesterOptions {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	if o.CPUWindow <= 0 {
		o.CPUWindow = time.Second
	}
	if o.CPUWindow >= o.Interval {
		o.CPUWindow = o.Interval / 2
	}
	if o.Keep <= 0 {
		o.Keep = 16
	}
	return o
}

// ProfileCapture is one harvested profile in the index: which file, what
// kind, and which superstep the run was in when the capture started — the
// correlation that lets a flame graph be read against the flight record.
type ProfileCapture struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"` // "cpu" or "heap"
	File   string `json:"file"`
	Engine string `json:"engine,omitempty"`
	Step   int64  `json:"step"`
	Error  string `json:"error,omitempty"`
}

// Harvester is the continuous profiling collector: on a fixed interval it
// captures a CPU profile window and a heap snapshot into its directory,
// rotates old captures out, and maintains an index.json correlating each
// capture with the superstep in flight. It implements Hooks to learn the
// current superstep — and to stamp the coordinator goroutine with
// runtime/pprof labels ("engine", "superstep") that the per-phase worker
// goroutines inherit, so CPU samples are attributable to supersteps even
// mid-window.
type Harvester struct {
	Nop

	dir  string
	opts HarvesterOptions

	step   atomic.Int64
	stop   chan struct{}
	done   chan struct{}
	start  sync.Once
	finish sync.Once

	mu     sync.Mutex
	engine string
	seq    int
	index  []ProfileCapture
	err    error
}

// NewHarvester builds a harvester writing into dir (created if needed).
func NewHarvester(dir string, opts HarvesterOptions) (*Harvester, error) {
	if err := EnsureWritableDir(dir); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	return &Harvester{
		dir:  dir,
		opts: opts.normalize(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Dir reports the capture directory.
func (h *Harvester) Dir() string { return h.dir }

// Start launches the capture loop; idempotent.
func (h *Harvester) Start() {
	h.start.Do(func() { go h.loop() })
}

// Stop ends the capture loop and waits for the in-flight round; idempotent.
func (h *Harvester) Stop() {
	h.finish.Do(func() { close(h.stop) })
	<-h.done
}

// Err reports the first capture failure, if any (failed rounds are also
// recorded per-capture in the index).
func (h *Harvester) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Files lists the currently retained capture file names, sorted.
func (h *Harvester) Files() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.index))
	for _, c := range h.index {
		if c.Error == "" {
			out = append(out, c.File)
		}
	}
	sort.Strings(out)
	return out
}

// Index returns a copy of the capture index.
func (h *Harvester) Index() []ProfileCapture {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ProfileCapture(nil), h.index...)
}

// OnRunStart implements Hooks: records the engine and resets the step label.
func (h *Harvester) OnRunStart(info RunInfo) {
	h.mu.Lock()
	h.engine = info.Engine
	h.mu.Unlock()
	h.step.Store(0)
	h.setLabels(info.Engine, 0)
}

// OnSuperstepStart implements Hooks: moves the superstep label forward. It
// runs on the coordinator goroutine, and the engines spawn their per-phase
// worker goroutines from it, so the workers inherit the labels.
func (h *Harvester) OnSuperstepStart(step int) {
	h.step.Store(int64(step))
	h.mu.Lock()
	engine := h.engine
	h.mu.Unlock()
	h.setLabels(engine, step)
}

// OnRunEnd implements Hooks: clears the coordinator's labels.
func (h *Harvester) OnRunEnd(RunEnd) {
	rpprof.SetGoroutineLabels(context.Background())
}

func (h *Harvester) setLabels(engine string, step int) {
	rpprof.SetGoroutineLabels(rpprof.WithLabels(context.Background(),
		rpprof.Labels("engine", engine, "superstep", strconv.Itoa(step))))
}

func (h *Harvester) loop() {
	defer close(h.done)
	tick := time.NewTicker(h.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			// A run shorter than the capture interval would otherwise end with
			// an empty harvest, so Stop always leaves at least one heap
			// snapshot and an index.json behind. The CPU window is skipped —
			// there is nothing left to sample.
			h.round(false)
			return
		case <-tick.C:
		}
		h.round(true)
	}
}

// round harvests one heap snapshot and, with cpu set, one CPU window first.
func (h *Harvester) round(cpu bool) {
	h.mu.Lock()
	h.seq++
	seq := h.seq
	engine := h.engine
	h.mu.Unlock()
	step := h.step.Load()

	var caps []ProfileCapture
	if cpu {
		c := ProfileCapture{Seq: seq, Kind: "cpu",
			File: fmt.Sprintf("cpu-%04d.pprof", seq), Engine: engine, Step: step}
		if err := h.captureCPU(filepath.Join(h.dir, c.File)); err != nil {
			c.Error = err.Error()
		}
		caps = append(caps, c)
	}
	heap := ProfileCapture{Seq: seq, Kind: "heap",
		File: fmt.Sprintf("heap-%04d.pprof", seq), Engine: engine, Step: step}
	if err := h.captureHeap(filepath.Join(h.dir, heap.File)); err != nil {
		heap.Error = err.Error()
	}
	caps = append(caps, heap)

	h.mu.Lock()
	h.index = append(h.index, caps...)
	h.rotateLocked()
	if err := h.writeIndexLocked(); err != nil && h.err == nil {
		h.err = err
	}
	for _, c := range caps {
		if c.Error != "" && h.err == nil {
			h.err = fmt.Errorf("obs: %s capture %d: %s", c.Kind, seq, c.Error)
		}
	}
	h.mu.Unlock()
}

func (h *Harvester) captureCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// StartCPUProfile fails when another CPU profile is running (e.g. an
	// operator hitting /debug/pprof/profile); the round records the error
	// and the next round tries again.
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	select {
	case <-h.stop:
	case <-time.After(h.opts.CPUWindow):
	}
	rpprof.StopCPUProfile()
	return f.Close()
}

func (h *Harvester) captureHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rpprof.WriteHeapProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// rotateLocked drops index entries beyond Keep per kind and deletes their
// files. Caller holds mu.
func (h *Harvester) rotateLocked() {
	perKind := map[string]int{}
	for _, c := range h.index {
		perKind[c.Kind]++
	}
	kept := h.index[:0]
	for _, c := range h.index {
		if perKind[c.Kind] > h.opts.Keep {
			perKind[c.Kind]--
			os.Remove(filepath.Join(h.dir, c.File)) //nolint:errcheck // best-effort rotation
			continue
		}
		kept = append(kept, c)
	}
	h.index = kept
}

// writeIndexLocked persists index.json atomically (temp + rename), so a
// reader never observes a torn index. Caller holds mu.
func (h *Harvester) writeIndexLocked() error {
	blob, err := json.MarshalIndent(h.index, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: profile index: %w", err)
	}
	return atomicWrite(filepath.Join(h.dir, "index.json"), func() []byte { return append(blob, '\n') })
}
