// Package sim provides a deterministic cycle-level discrete-event simulation
// kernel. It is the substrate every hardware model in this repository is
// built on: the NoC, caches, memory controllers, PCIe links, bridges and
// cores all schedule work on a shared Engine.
//
// Determinism: events are ordered by (time, priority, sequence number), where
// the sequence number is assigned at scheduling time. Two runs with the same
// inputs produce identical event orders and therefore identical results.
//
// Throughput: the engine is allocation-free on its hot path and every
// scheduling operation is O(1) for near events. Events live in a per-Engine
// pool and are recycled through a free list; a generation counter per slot
// keeps a stale Timer from cancelling a recycled event. Pending events less
// than wheelSize cycles ahead sit on a timing wheel: one bucket per cycle,
// holding a front-of-cycle (prioDeliver) list and a normal list, both
// threaded through the pool by index, plus an occupancy bitmap that finds
// the next non-empty cycle with a few word scans. Appends happen in sequence
// order, so each list is sorted by construction. Only far events (wheelSize
// or more cycles out — a fraction of a percent of simulator traffic) go to a
// 4-ary heap, which the pop path merges against the wheel by (time, key).
// CrossNet deliveries (crossnet.go) ride the wheel as one front-of-cycle
// flush event per (destination, cycle) batch, and processes (process.go)
// are iter.Pull coroutines resumed by ordinary events.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, measured in clock cycles of the
// prototype's reference clock (100 MHz by default, so one cycle is 10 ns).
type Time uint64

// TimeMax is the largest representable simulation time.
const TimeMax Time = math.MaxUint64

// event is a pooled scheduled callback. Exactly one of fn/afn is set while
// the event is live; both nil marks a cancelled (or free) slot. gen counts
// how many times the slot has been recycled, so a Timer holding (idx, gen)
// can never resurrect or cancel a successor event in the same slot. next
// links the slot into its wheel bucket's list (-1 ends the list).
type event struct {
	at   Time
	seq  uint64
	fn   func()
	afn  func(any)
	arg  any
	gen  uint64
	prio uint8
	next int32
}

// live reports whether the slot holds a schedulable callback.
func (ev *event) live() bool { return ev.fn != nil || ev.afn != nil }

// Event priorities: deliveries injected by a CrossNet run at the start of
// their cycle, before ordinarily scheduled work, so serial and sharded
// execution see cross-shard traffic at the same point in the cycle.
const (
	prioDeliver = 0
	prioNormal  = 1
)

// wheelSize is the timing wheel's span in cycles (a power of two). Events
// scheduled fewer than wheelSize cycles ahead take the O(1) wheel path;
// the simulator's model latencies (router hops, cache and DRAM lookups,
// PCIe crossings) all fall well inside it.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// bucket is one wheel slot: the pending events of a single cycle as two
// intrusive FIFO lists over the pool, front-of-cycle deliveries first. The
// heads are only meaningful while the slot's occupancy bit is set; setting
// the bit resets them, so an idle slot needs no cleanup.
type bucket struct {
	frontHead, frontTail int32
	normHead, normTail   int32
}

// heapEnt is one far-event heap entry: the ordering key plus the pool index.
// key folds (prio, seq) into one word — prio in the top bit, seq below — so
// the heap comparison is two integer compares with no pointer chasing.
type heapEnt struct {
	at  Time
	key uint64
	idx int32
}

func entKey(prio uint8, seq uint64) uint64 { return uint64(prio)<<63 | seq }

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// to use; construct one with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	stopped   bool
	live      int  // scheduled events that have not fired and are not cancelled
	lastEvent Time // timestamp of the most recently executed event

	pool []event // event slots; index is the stable handle
	free []int32 // recycled slot indices

	// Timing wheel for events at [now, now+wheelSize). Slot t&wheelMask
	// holds cycle t: every queued event is at or after now (the clock only
	// moves to the earliest queued time, or past an empty stretch), so a
	// slot never mixes two cycles.
	wheel [wheelSize]bucket
	occ   [wheelWords]uint64 // bit s set: wheel[s] holds at least one event

	heap []heapEnt // far events, a 4-ary min-heap ordered by (at, prio, seq)

	// stats
	executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live events currently scheduled. Cancelled
// timers still sitting in the queue are not counted: a drained queue of
// cancelled PCIe retransmit timers must read as quiesced, or the Watchdog
// and Sampler would see phantom pending work.
func (e *Engine) Pending() int { return e.live }

// LastEventTime returns the timestamp of the most recently executed event.
// Unlike Now it is never advanced by RunUntil's deadline forcing, so it
// reports when the engine last did real work.
func (e *Engine) LastEventTime() Time { return e.lastEvent }

// alloc takes a slot from the free list (or grows the pool), stamps it with
// the next sequence number and returns its index.
func (e *Engine) alloc(at Time, prio uint8) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, event{})
		idx = int32(len(e.pool) - 1)
	}
	e.seq++
	ev := &e.pool[idx]
	ev.at = at
	ev.prio = prio
	ev.seq = e.seq
	return idx
}

// release recycles a slot: the callback references are dropped so the GC can
// collect them, and the generation is bumped so stale Timers miss.
func (e *Engine) release(idx int32) {
	ev := &e.pool[idx]
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.gen++
	e.free = append(e.free, idx)
}

// enqueue places a freshly allocated slot in the pending structure: the
// tail of its cycle's wheel list when it is near, the far heap otherwise.
// Sequence numbers only grow, so tail appends keep each list in seq order.
func (e *Engine) enqueue(idx int32, t Time, prio uint8) {
	e.live++
	if t-e.now >= wheelSize {
		e.heapPush(heapEnt{at: t, key: entKey(prio, e.pool[idx].seq), idx: idx})
		return
	}
	s := int(t & wheelMask)
	b := &e.wheel[s]
	if w, bit := s>>6, uint64(1)<<(s&63); e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		b.frontHead, b.normHead = -1, -1
	}
	e.pool[idx].next = -1
	if prio == prioDeliver {
		if b.frontHead < 0 {
			b.frontHead = idx
		} else {
			e.pool[b.frontTail].next = idx
		}
		b.frontTail = idx
		return
	}
	if b.normHead < 0 {
		b.normHead = idx
	} else {
		e.pool[b.normTail].next = idx
	}
	b.normTail = idx
}

// wheelSlot returns the slot of the earliest non-empty wheel cycle. Slots
// are scanned circularly from now's slot, which is ascending time order.
func (e *Engine) wheelSlot() (int, bool) {
	s := int(e.now & wheelMask)
	w := s >> 6
	if m := e.occ[w] &^ (1<<(s&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m), true
	}
	for i := 1; i < wheelWords; i++ {
		wi := (w + i) % wheelWords
		if m := e.occ[wi]; m != 0 {
			return wi<<6 | bits.TrailingZeros64(m), true
		}
	}
	if m := e.occ[w] & (1<<(s&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m), true
	}
	return 0, false
}

// wheelHead returns the first event of an occupied slot.
func (e *Engine) wheelHead(s int) int32 {
	b := &e.wheel[s]
	if b.frontHead >= 0 {
		return b.frontHead
	}
	return b.normHead
}

// wheelPop unlinks and returns the first event of an occupied slot,
// clearing its occupancy bit when the slot empties.
func (e *Engine) wheelPop(s int) int32 {
	b := &e.wheel[s]
	var idx int32
	if b.frontHead >= 0 {
		idx = b.frontHead
		b.frontHead = e.pool[idx].next
	} else {
		idx = b.normHead
		b.normHead = e.pool[idx].next
	}
	if b.frontHead < 0 && b.normHead < 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
	return idx
}

// heapPush inserts an entry into the 4-ary far heap.
func (e *Engine) heapPush(ent heapEnt) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPopHead removes the minimum entry.
func (e *Engine) heapPopHead() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pastPanic reports a scheduling-in-the-past bug; it is always a model bug.
func (e *Engine) pastPanic(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
}

// Schedule runs fn after delay cycles. A delay of zero runs fn later in the
// current cycle (after all previously scheduled work for this cycle).
func (e *Engine) Schedule(delay Time, fn func()) {
	e.At(e.now+delay, fn)
}

// ScheduleArg runs fn(arg) after delay cycles. It is the typed-callback
// twin of Schedule for hot call sites: a model stores one bound method (or
// package function) as a func(any) and passes the per-event state as arg,
// so no capture closure is allocated per event. A pointer-shaped arg (the
// usual case: *Packet, *Msg, *Envelope, small ints) does not allocate when
// converted to any.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	e.AtArg(e.now+delay, fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is always
// a model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioNormal)
	e.pool[idx].fn = fn
	e.enqueue(idx, t, prioNormal)
}

// AtArg runs fn(arg) at absolute time t; see ScheduleArg.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioNormal)
	ev := &e.pool[idx]
	ev.afn = fn
	ev.arg = arg
	e.enqueue(idx, t, prioNormal)
}

// AtFront runs fn at absolute time t, ahead of every normally scheduled
// event of that cycle. CrossNets use it to inject cross-shard deliveries "on
// the clock edge": a delivery at cycle T always executes before local work
// of cycle T, in both serial and sharded execution, which removes the one
// tie the two modes could otherwise order differently.
func (e *Engine) AtFront(t Time, fn func()) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioDeliver)
	e.pool[idx].fn = fn
	e.enqueue(idx, t, prioDeliver)
}

// AtFrontArg is the typed-callback twin of AtFront; see ScheduleArg.
func (e *Engine) AtFrontArg(t Time, fn func(any), arg any) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioDeliver)
	ev := &e.pool[idx]
	ev.afn = fn
	ev.arg = arg
	e.enqueue(idx, t, prioDeliver)
}

// Timer is a handle to a cancellable event scheduled with Engine.After.
// The zero Timer is valid and cancels nothing. A Timer is a value: it holds
// the event's pool slot and the slot's generation at scheduling time, so a
// Cancel that races with slot recycling (the event fired, the slot was
// reused) is a guaranteed no-op rather than a resurrection bug.
type Timer struct {
	eng *Engine
	idx int32
	gen uint64
}

// Cancel discards the timer's event. A cancelled event is skipped unexecuted
// when the queue reaches it: it does not run, does not advance the clock and
// does not count as executed, so timeout guards that usually get cancelled
// leave a run's final time and statistics untouched. Safe on the zero Timer
// and after the event has already fired.
func (t *Timer) Cancel() {
	if t == nil || t.eng == nil {
		return
	}
	ev := &t.eng.pool[t.idx]
	if ev.gen == t.gen && ev.live() {
		ev.fn, ev.afn, ev.arg = nil, nil, nil
		t.eng.live--
	}
	t.eng = nil
}

// After schedules fn after delay cycles, like Schedule, but returns a Timer
// that can cancel the event before it fires. Models use it for timeout
// watchdogs (e.g. the PCIe retransmit timer) that are cancelled on the
// common path.
func (e *Engine) After(delay Time, fn func()) Timer {
	t := e.now + delay
	idx := e.alloc(t, prioNormal)
	ev := &e.pool[idx]
	ev.fn = fn
	gen := ev.gen
	e.enqueue(idx, t, prioNormal)
	return Timer{eng: e, idx: idx, gen: gen}
}

// NextEventTime returns the timestamp of the earliest live event, discarding
// any cancelled events it finds at the head of the queue (their slots are
// recycled onto the free list, exactly as Step's drain does). The second
// return is false when no live events remain.
func (e *Engine) NextEventTime() (Time, bool) {
	for {
		idx, s, ok := e.head()
		if !ok {
			return 0, false
		}
		if ev := &e.pool[idx]; ev.live() {
			return ev.at, true
		}
		e.pop(s)
		e.release(idx)
	}
}

// head locates the earliest queued event, live or cancelled, without
// removing it: its pool index and its wheel slot (-1 for the far heap's
// head). A far event reaches the front only by comparison: it stays in the
// heap until popped, and orders against the earliest wheel cycle's first
// event by (time, priority, sequence) like any other event.
func (e *Engine) head() (int32, int, bool) {
	s, inWheel := e.wheelSlot()
	if len(e.heap) > 0 {
		ent := e.heap[0]
		if !inWheel {
			return ent.idx, -1, true
		}
		w := e.wheelHead(s)
		if ev := &e.pool[w]; ent.at < ev.at || ent.at == ev.at && ent.key < entKey(ev.prio, ev.seq) {
			return ent.idx, -1, true
		}
		return w, s, true
	}
	if !inWheel {
		return 0, 0, false
	}
	return e.wheelHead(s), s, true
}

// pop removes the event head just located in slot s.
func (e *Engine) pop(s int) {
	if s < 0 {
		e.heapPopHead()
	} else {
		e.wheelPop(s)
	}
}

// Step executes the single next event. It reports false when the queue is
// empty or the engine has been stopped. Cancelled events are discarded
// without executing (and without advancing the clock); Step still reports
// true for them so run loops keep draining.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	idx, s, ok := e.head()
	if !ok {
		return false
	}
	e.pop(s)
	e.exec(idx)
	return true
}

// exec runs (or, when cancelled, discards) a popped event.
func (e *Engine) exec(idx int32) {
	ev := &e.pool[idx]
	if !ev.live() {
		e.release(idx) // cancelled; already removed from the live count
		return
	}
	e.now = ev.at
	e.lastEvent = ev.at
	e.executed++
	e.live--
	// Copy the callback out and recycle the slot before invoking: the
	// callback may schedule (growing the pool and moving ev) and a Timer
	// still pointing at the slot is fenced off by the generation bump.
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.release(idx)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Run executes events until the queue drains or Stop is called. It returns
// the final simulation time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is left at min(deadline,
// last executed event time).
func (e *Engine) RunUntil(deadline Time) Time {
	e.runTo(deadline)
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return e.now
}

// RunFor advances the clock by d cycles, executing everything in between.
func (e *Engine) RunFor(d Time) Time { return e.RunUntil(e.now + d) }

// runTo executes events with timestamps <= deadline but, unlike RunUntil,
// never forces the clock forward: the clock is left at the last executed
// event. Shard workers use it so that between windows every engine's notion
// of "now" matches what the serial engine would have seen (forcing would
// timestamp post-window scheduling differently across modes).
func (e *Engine) runTo(deadline Time) {
	for !e.stopped {
		idx, s, ok := e.head()
		if !ok || e.pool[idx].at > deadline {
			break
		}
		e.pop(s)
		e.exec(idx)
	}
}

// alignTo advances an idle engine's clock to t without executing anything.
// The shard group calls it after a full drain so that host-side code that
// schedules new work afterwards (e.g. spawning the next workload phase) sees
// the same timestamps a serial run would.
func (e *Engine) alignTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event completes. Pending events
// remain queued; a stopped engine can be resumed with Resume.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears the stopped flag set by Stop.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether the engine is currently stopped.
func (e *Engine) Stopped() bool { return e.stopped }
