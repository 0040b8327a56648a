package sim

import (
	"fmt"
	"slices"
)

// CrossNet carries events between shards — the PCIe crossings, the
// intra-FPGA interconnect hops and thread migrations that are the only
// coupling between shard engines. Both execution modes implement it:
// SerialNet for the single-engine reference and Group for the sharded
// engine. The two apply the *same* canonical delivery discipline, which is
// what makes them produce identical event orders:
//
//   - all deliveries landing on one destination endpoint in one cycle are
//     applied in ascending (send time, source endpoint, per-source
//     sequence) order;
//   - deliveries run at the front of their cycle (Engine.AtFront), before
//     any ordinarily scheduled local event of the same cycle.
//
// The per-source sequence reproduces serial scheduling order: within one
// endpoint sends are numbered in execution order, and in the serial engine
// execution order at a given time *is* scheduling order, so sorting by
// (send time, source, sequence) reconstructs exactly the global sequence
// numbers the serial engine would have assigned.
//
// Deliveries to *different* endpoints in the same cycle carry no ordering
// contract: endpoint state is disjoint by construction (each delivery
// mutates only its destination's models and registry), so the two modes are
// free to interleave them differently without observable divergence.
type CrossNet interface {
	// Send delivers fn on endpoint dst at absolute time deliverAt. src is
	// the calling endpoint; the call must be made from the execution context
	// of the engine that owns src. In sharded mode deliverAt must be at
	// least the governing lookahead past the current window start — the
	// caller's model latency guarantees it.
	Send(src, dst int, deliverAt Time, fn func())
}

// netEntry is one in-flight cross-shard delivery.
type netEntry struct {
	at   Time // delivery time
	sent Time // send time
	src  int  // source endpoint
	dst  int  // destination endpoint
	seq  uint64
	fn   func()
}

// netOrder sorts deliveries into the canonical application order. Entries
// are compared by (delivery time, send time, source endpoint, per-source
// seq).
func netOrder(a, b netEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// netCmp is netOrder as a three-way comparison for slices.SortFunc (which,
// unlike sort.Slice, sorts a typed slice without boxing or reflection).
func netCmp(a, b netEntry) int {
	if netOrder(a, b) {
		return -1
	}
	if netOrder(b, a) {
		return 1
	}
	return 0
}

// batch is one (destination, cycle)'s deliveries: the argument of that
// cycle's single flush event. Its envelopes are a list threaded through the
// spool's entry slab. Batches come from a per-spool free list and the slab
// recycles entries, so a warmed-up spool parks and flushes without
// allocating.
type batch struct {
	at         Time
	dst        int
	head, tail int32  // the batch's envelopes in spool.ents (-1: none)
	prev, next *batch // the destination's open batches, ascending at
}

// spoolEnt is one slab slot: a parked envelope and the link to the next
// envelope of its batch (or, while free, to the next free slot).
type spoolEnt struct {
	netEntry
	next int32
}

// batchChunk is how many batches one allocation provides.
const batchChunk = 16

// dstState is one destination endpoint's open batches: those whose flush
// event is queued but has not run, in ascending delivery time.
type dstState struct {
	first, last *batch
}

// spool is one engine's delivery side of a CrossNet: per destination
// endpoint it parks pending envelopes and applies all of a cycle's
// deliveries in canonical order at the front of that cycle, with exactly
// one flush event per (destination, cycle) carrying that cycle's batch.
// SerialNet is a spool over the single engine; the sharded Group keeps one
// spool per shard engine, fed from barrier merges and from same-engine
// sends.
//
// Endpoint ids may include pcie.HostID (-1); state is indexed at id+1.
type spool struct {
	eng       *Engine
	dsts      []dstState
	ents      []spoolEnt // envelope slab; a slot index is the list link
	freeEnt   int32      // first free slab slot (-1: none)
	freeBatch *batch     // free batches, linked through next
	due       []netEntry // scratch: the flushing batch in canonical order
	flushFn   func(any)  // bound once; arg is the *batch to apply
}

func newSpool(eng *Engine) *spool {
	s := &spool{eng: eng, freeEnt: -1}
	s.flushFn = func(b any) { s.flush(b.(*batch)) }
	return s
}

// dstAt returns dst's delivery state, growing the table on first use.
func (s *spool) dstAt(dst int) *dstState {
	for dst+1 >= len(s.dsts) {
		s.dsts = append(s.dsts, dstState{})
	}
	return &s.dsts[dst+1]
}

// insert parks one envelope in its (destination, cycle) batch, opening the
// batch and queueing its flush event on first use. It must run either in
// the owning engine's own execution context or while that engine is
// provably parked (a window barrier provides the happens-before edge).
func (s *spool) insert(e netEntry) {
	d := s.dstAt(e.dst)
	// Deliveries mostly arrive in ascending time per destination, so the
	// search starts at the latest open batch; only cycles within the
	// fabric's latency spread are ever open at once.
	b := d.last
	for b != nil && b.at > e.at {
		b = b.prev
	}
	if b == nil || b.at != e.at {
		b = s.open(d, b, e.at, e.dst)
	}
	i := s.freeEnt
	if i >= 0 {
		s.freeEnt = s.ents[i].next
		s.ents[i] = spoolEnt{netEntry: e, next: -1}
	} else {
		i = int32(len(s.ents))
		s.ents = append(s.ents, spoolEnt{netEntry: e, next: -1})
	}
	if b.head < 0 {
		b.head = i
	} else {
		s.ents[b.tail].next = i
	}
	b.tail = i
}

// open starts dst's batch for cycle at, linked in after the open batch
// `after` (nil: first), and queues its flush event.
func (s *spool) open(d *dstState, after *batch, at Time, dst int) *batch {
	if s.freeBatch == nil {
		chunk := make([]batch, batchChunk)
		for i := range chunk {
			chunk[i].next = s.freeBatch
			s.freeBatch = &chunk[i]
		}
	}
	b := s.freeBatch
	s.freeBatch = b.next
	*b = batch{at: at, dst: dst, head: -1, tail: -1, prev: after}
	if after == nil {
		b.next, d.first = d.first, b
	} else {
		b.next, after.next = after.next, b
	}
	if b.next == nil {
		d.last = b
	} else {
		b.next.prev = b
	}
	s.eng.AtFrontArg(at, s.flushFn, b)
	return b
}

// flush applies one batch in canonical order. It runs as a prioDeliver
// event, ahead of the cycle's local work. Every earlier batch of the
// destination has flushed already, so b is the first open one; it is
// closed and its slab slots freed before any delivery runs, and a
// same-cycle send made by one of them opens a fresh batch with its own
// flush event.
func (s *spool) flush(b *batch) {
	d := s.dstAt(b.dst)
	if d.first != b {
		panic(fmt.Sprintf("sim: delivery batch for endpoint %d at %d flushed out of order", b.dst, b.at))
	}
	d.first = b.next
	if d.first == nil {
		d.last = nil
	} else {
		d.first.prev = nil
	}
	head, single := b.head, b.head == b.tail
	*b = batch{next: s.freeBatch}
	s.freeBatch = b
	if single { // the common case: nothing to order
		e, _ := s.take(head)
		e.fn()
		return
	}
	due := s.due[:0]
	s.due = nil // a delivery that re-enters flush gets its own scratch
	for i := head; i >= 0; {
		var e netEntry
		e, i = s.take(i)
		due = append(due, e)
	}
	slices.SortFunc(due, netCmp)
	for i := range due {
		due[i].fn()
		due[i].fn = nil
	}
	s.due = due[:0]
}

// take removes the envelope in slab slot i, frees the slot (dropping its
// closure reference) and returns the envelope with its batch successor.
func (s *spool) take(i int32) (netEntry, int32) {
	en := &s.ents[i]
	e, next := en.netEntry, en.next
	*en = spoolEnt{next: s.freeEnt}
	s.freeEnt = i
	return e, next
}

// SerialNet is the single-engine CrossNet: everything runs on one Engine,
// so "crossing" is just a scheduled event — but routed through the same
// canonical ordering the sharded Group uses, so the serial reference and a
// sharded run order cross-shard traffic identically.
type SerialNet struct {
	sp     *spool
	minLat func(src, dst int) Time // per-edge model-latency floor; nil = unguarded
	seqs   []uint64
}

// NewSerialNet returns a CrossNet that delivers on eng.
func NewSerialNet(eng *Engine) *SerialNet {
	return &SerialNet{sp: newSpool(eng)}
}

// seqAt returns a pointer to src's sequence counter, growing the table on
// first use of a source.
func (n *SerialNet) seqAt(src int) *uint64 {
	for src+1 >= len(n.seqs) {
		n.seqs = append(n.seqs, 0)
	}
	return &n.seqs[src+1]
}

// SetMinLatency arms a uniform model-latency floor, the guard the sharded
// Group always enforces: a Send delivering closer than lat to the current
// cycle panics. The serial engine does not need the bound for correctness —
// it has no windows — but a model that undercuts it here would undercut the
// sharded lookahead too, so guarding the serial reference catches the
// wiring bug in whichever mode hits it first. 0 disarms the guard.
func (n *SerialNet) SetMinLatency(lat Time) {
	if lat == 0 {
		n.minLat = nil
		return
	}
	n.minLat = func(int, int) Time { return lat }
}

// SetMinLatencyFunc arms a per-edge-class model-latency floor: class
// returns the minimum latency a send on the (src, dst) edge must respect —
// e.g. the intra-FPGA interconnect crossing for co-located nodes and the
// (much larger) PCIe crossing for nodes on different FPGAs. With per-edge
// floors the serial reference panics on an undercutting intra-FPGA send
// exactly like a sharded run's Group does, not only on PCIe-class sends.
// A nil or zero class result leaves that edge unguarded.
func (n *SerialNet) SetMinLatencyFunc(class func(src, dst int) Time) {
	n.minLat = class
}

// Send implements CrossNet.
func (n *SerialNet) Send(src, dst int, deliverAt Time, fn func()) {
	now := n.sp.eng.Now()
	if n.minLat != nil {
		if min := n.minLat(src, dst); min > 0 && deliverAt < now+min {
			panic(fmt.Sprintf("sim: cross-shard send %d->%d at %d delivers at %d; model latency undercuts minimum crossing %d",
				src, dst, now, deliverAt, min))
		}
	}
	seq := n.seqAt(src)
	*seq++
	n.sp.insert(netEntry{at: deliverAt, sent: now, src: src, dst: dst, seq: *seq, fn: fn})
}
