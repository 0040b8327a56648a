//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a coroutine running against an Engine. Each Process body runs
// on its own iter.Pull coroutine: the engine resumes it at scheduled times
// by pulling the next value, and the process yields back by calling Wait,
// WaitUntil or one of the blocking helpers. A coroutine switch hands the
// thread over directly — no channel operation, no trip through the Go
// scheduler — and exactly one of {engine, any process} runs at a time, so
// models stay deterministic and need no locking among themselves.
//
// A Process is the execution vehicle for anything with sequential control
// flow: workload threads, the RISC-V core's instruction loop, test drivers.
//
// Hop resumes a process from a different shard's goroutine than the one
// that last ran it. That is safe because a pulled coroutine may be resumed
// from any goroutine as long as it is never resumed from two at once: the
// process is parked in its yield until the destination shard's delivery
// resumes it, and the window barrier that hands the delivery over orders
// that resume after the park. For the same reason no goroutine that runs
// an engine may be locked to its OS thread (runtime.LockOSThread): the
// runtime resumes a coroutine only with the thread-lock state it was
// created under, and a hopping process moves between goroutines.
//
// The file needs go1.23 for the iter package. The module's go line stays
// at 1.22 for its dependents; go.mod's toolchain line selects a toolchain
// that builds it.
type Process struct {
	eng    *Engine
	name   string
	fn     func(*Process)          // the body
	resume func() (struct{}, bool) // runs the body until it yields or returns
	yield  func(struct{}) bool     // parks the body; set once it starts
	done   bool
	err    any // panic value from the process body, re-raised in the engine

	// wakeFn is bound once at creation so the hot resume paths (Call,
	// Suspend) hand out a completion without allocating a closure per
	// event; dispatches are scheduled through dispatchArg with the process
	// as the argument.
	wakeFn func()
	armed  bool // a Suspend/Call completion is outstanding

	hb raceEdge // explicit switch edge for the race detector (race.go)
}

// Go starts fn as a new process at the current simulation time. fn receives
// the Process handle and must use it for all time-consuming operations.
func Go(eng *Engine, name string, fn func(*Process)) *Process {
	p := &Process{eng: eng, name: name, fn: fn}
	p.wakeFn = p.wake
	p.resume, _ = iter.Pull(p.run)
	eng.ScheduleArg(0, dispatchArg, p)
	return p
}

// run is the coroutine body. A panic is recorded and re-raised by dispatch
// on the engine's side. When it returns the coroutine finishes and its
// goroutine exits. Nothing stops a coroutine early, so the pull's stop
// function is dropped: a process still parked when its simulation is
// abandoned keeps its goroutine parked.
func (p *Process) run(yield func(struct{}) bool) {
	p.yield = yield
	p.hb.acquire()
	defer func() {
		if r := recover(); r != nil {
			p.err = r
		}
		p.done = true
		p.hb.release()
	}()
	p.fn(p)
}

// dispatchArg is the event callback that resumes the process passed as arg.
func dispatchArg(p any) { p.(*Process).dispatch() }

// dispatch runs the process body until it yields or finishes, blocking the
// engine meanwhile.
func (p *Process) dispatch() {
	if p.done {
		return
	}
	p.hb.release()
	p.resume()
	p.hb.acquire()
	if p.done {
		p.fn, p.resume, p.yield = nil, nil, nil
	}
	if p.err != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.err))
	}
}

// wake is the shared completion callback handed out by Suspend and Call. A
// process can have at most one completion outstanding (it is parked while it
// waits), so one bound function per process suffices; the armed flag catches
// a completion invoked twice.
func (p *Process) wake() {
	if !p.armed {
		panic(fmt.Sprintf("sim: process %q woken twice", p.name))
	}
	p.armed = false
	p.eng.ScheduleArg(0, dispatchArg, p)
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Name returns the process name (for diagnostics).
func (p *Process) Name() string { return p.name }

// Now returns the current simulation time.
func (p *Process) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Wait suspends the process for d cycles.
func (p *Process) Wait(d Time) {
	p.eng.ScheduleArg(d, dispatchArg, p)
	p.block()
}

// WaitUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Process) WaitUntil(t Time) {
	if t <= p.eng.Now() {
		return
	}
	p.eng.AtArg(t, dispatchArg, p)
	p.block()
}

// block yields control back to the engine until dispatch resumes us.
func (p *Process) block() {
	p.hb.release()
	p.yield(struct{}{})
	p.hb.acquire()
}

// Hop moves the process to another shard: after delay cycles it resumes on
// dstEng, delivered through net so the crossing is ordered canonically with
// all other cross-shard traffic. src and dst are the CrossNet shard ids;
// the call must be made from shard src's execution context, and delay must
// be at least the group lookahead. With a SerialNet, dstEng is the same
// engine and Hop degenerates to a canonically-ordered Wait.
func (p *Process) Hop(net CrossNet, src, dst int, dstEng *Engine, delay Time) {
	net.Send(src, dst, p.eng.Now()+delay, func() {
		// Runs on dst's goroutine; the process itself is parked in
		// block below, and the window barrier orders this write and the
		// resume after the park.
		p.eng = dstEng
		p.dispatch()
	})
	p.block()
}

// Suspend parks the process indefinitely. The returned wake function
// reschedules it; it must be called exactly once per Suspend, from any event
// callback. Typical use: issue a request to a model, Suspend, and have the
// model's completion event call wake. The wake function is the process's
// pooled completion (no allocation); waking twice panics.
func (p *Process) Suspend() (wake func()) {
	p.armed = true
	return p.wakeFn
}

// Park suspends until wake is invoked. It is split from Suspend so callers
// can publish the wake function before blocking.
func (p *Process) Park() { p.block() }

// Call issues an asynchronous operation and blocks until it completes.
// start receives a completion callback; the model must invoke it exactly once
// (possibly immediately). Call returns at the simulation time of completion.
func (p *Process) Call(start func(done func())) {
	p.armed = true
	// The engine cannot execute the dispatch the completion schedules
	// before we yield below, even when the completion is synchronous,
	// because the engine is blocked waiting on this process.
	start(p.wakeFn)
	p.block()
}
