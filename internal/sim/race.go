//go:build race

package sim

import "sync/atomic"

// raceEdge makes every Process switch an explicit happens-before edge for
// the race detector. iter.Pull annotates its own switches, but a coroutine
// goroutine that exits never reports its end to the race runtime, and with
// many exited coroutines long sharded runs drew false reports between
// processes on different shards whose accesses the window barrier orders.
// Every process's coroutine exits when its body returns, so an atomic store
// before each switch and a load after it keep the edge explicit; ordinary
// builds compile it away (norace.go).
type raceEdge struct{ v atomic.Uint32 }

func (r *raceEdge) release() { r.v.Store(1) }

func (r *raceEdge) acquire() { r.v.Load() }
