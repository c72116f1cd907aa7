// Package bsp exercises the determinism analyzer inside one of its scoped
// package paths (cyclops/internal/bsp shadows the real engine).
package bsp

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

type stepStats struct {
	Durations [4]time.Duration
	Started   time.Time
	runStart  time.Time // timer field: only ever fed to time.Since
	leaked    time.Time
}

type deadliner struct{}

func (deadliner) SetReadDeadline(t time.Time) error { return nil }

// quarantinedTiming is the legal phase-timer idiom: the timer local feeds
// only time.Since, and the duration lands directly in a Duration field.
func quarantinedTiming(s *stepStats) {
	start := time.Now()
	work()
	s.Durations[0] = time.Since(start)
	start = time.Now() // re-arming the same timer var is still quarantined
	work()
	s.Durations[1] = time.Since(start)
}

// fieldTimer is the same idiom with the timer in an unexported field, armed
// in one function and read in another: legal, because every use in the
// package is a time.Since argument.
func fieldTimer(s *stepStats) {
	s.runStart = time.Now()
	sinceRun(s)
}

func sinceRun(s *stepStats) { s.Durations[2] = time.Since(s.runStart) }

// deadlines are I/O scheduling, not recorded values: legal.
func deadlines(d deadliner) {
	_ = d.SetReadDeadline(time.Now().Add(time.Second))
}

func leaks(s *stepStats) {
	s.Started = time.Now() // want `time.Now escapes the timings quarantine`
	s.leaked = time.Now()  // want `time.Now escapes the timings quarantine`
	fmt.Println(s.leaked)  // the leak: a field read that is not a time.Since argument
	start := time.Now()    // want `time.Now escapes the timings quarantine`
	fmt.Println(start)     // the leak: the timer value escapes to output
	t2 := time.Now()
	elapsed := time.Since(t2) // want `time.Since result must be stored directly`
	_ = elapsed
}

func globalRand(n int) int {
	return rand.Intn(n) // want `global math/rand.Intn is process-seeded`
}

func seededRand(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed)) // constructors for seeded generators are legal
	return r.Intn(n)
}

func emitInMapOrder(m map[int]float64, send func(int, float64)) {
	for k, v := range m { // want `map iteration order is randomized`
		send(k, v)
	}
}

func collectThenSort(m map[int]float64, send func(int, float64)) {
	var keys []int
	for k := range m { // collect-then-sort is order-insensitive: legal
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		send(k, m[k])
	}
}

func drain(m map[int]float64) {
	for k := range m { // delete-all is order-insensitive: legal
		delete(m, k)
	}
}

func annotated() time.Time {
	//lint:allow determinism golden-test exercise of the allow directive
	return time.Now()
}

func rangeOverSlice(xs []int) int {
	var sum int
	for _, x := range xs { // slices iterate in index order: legal
		sum += x
	}
	return sum
}

func heapIntrospection() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // want `runtime.ReadMemStats values are GC-schedule- and machine-dependent`
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples) // want `runtime/metrics.Read values are GC-schedule- and machine-dependent`
	return ms.HeapAlloc + samples[0].Value.Uint64()
}

func allowedIntrospection() uint32 {
	var ms runtime.MemStats
	//lint:allow determinism golden-test exercise of the allow directive
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

func work() {}
