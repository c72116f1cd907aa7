// Package superstep is a golden-test stub that shadows the real
// cyclops/internal/superstep import path: the engines drain through its
// Drain, which the bufretain analyzer treats as transport.Drain.
package superstep

import "cyclops/internal/transport"

type Kernel struct{ Recv []int64 }

// Drain mirrors the real helper's shape: the kernel, the transport, the worker.
func Drain[M any](k *Kernel, tr transport.Interface[M], w int) [][]M { return tr.Drain(w) }
