//go:build go1.23

// This file holds the engine's coroutine plumbing. Package iter needs
// go1.23; the build line raises this one file's language version above
// the module's go 1.22.

package sim

import "iter"

// closedPanic is what park panics with once its engine is closed: it
// unwinds the task body, deferred calls included, up to start.
type closedPanic struct{}

// start wraps fn in the task's coroutine. The body runs no code until the
// driver first resumes it, at the task's first dispatch. A body unwound by
// Close ends quietly; any other panic goes on to the driver.
func (t *Task) start(fn func(*Task)) {
	t.resume, t.stop = iter.Pull(func(yield func(dispatch) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (closedPanic{}) {
				panic(r)
			}
		}()
		fn(t)
	})
}

// park runs the dispatch step inside the parking task. If the next event is
// this task's own wake it returns at once, with no switch; otherwise it
// yields the popped dispatch to the driver and suspends until resumed. On
// a closed engine it unwinds the task instead: yield reports false when
// Close stops the coroutine, and a deferred call that parks again while
// the body unwinds finds the engine closed.
func (t *Task) park() wakeCause {
	e := t.eng
	if e.closed {
		panic(closedPanic{})
	}
	d := e.next()
	if d.task == t {
		e.stats.InlineResumes++
		return d.cause
	}
	if !t.yield(d) {
		panic(closedPanic{})
	}
	return t.cause
}

// RunUntil drives the simulation until no live tasks remain or the clock
// would pass limit. Events beyond limit stay queued. The calling goroutine
// is the driver: it resumes each dispatched task's coroutine, takes the
// next dispatch from the task when it parks, and does the exit bookkeeping
// when its body returns. A panic inside a task surfaces here, on the
// caller's goroutine, with its original value. A later RunUntil, from any
// goroutine, carries on where this one stopped.
func (e *Engine) RunUntil(limit Time) error {
	e.limit = limit
	d := e.next()
	for d.task != nil {
		t := d.task
		t.cause = d.cause
		var parked bool
		if d, parked = t.resume(); !parked {
			e.nlive--
			delete(e.tasks, t)
			d = e.next()
		}
	}
	return d.err
}

// Close ends every task that has not exited: a parked body unwinds from
// the primitive it is parked in, running its deferred calls, and a body
// that never got its first dispatch runs no code at all. Each task's
// coroutine, goroutine and stack are then released. Without Close, an
// engine dropped after a RunUntil limit or a stall keeps all of them for
// good. Tasks spawned while bodies unwind are ended too. Close must be
// called from outside any task, and the engine must not run again.
func (e *Engine) Close() {
	e.closed = true
	for len(e.tasks) > 0 {
		for t := range e.tasks {
			delete(e.tasks, t)
			e.nlive--
			t.stop()
		}
	}
	e.current = nil
}
