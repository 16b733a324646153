//go:build go1.23

// This file holds the engine's coroutine plumbing. Package iter needs
// go1.23; the build line raises this one file's language version above
// the module's go 1.22.

package sim

import "iter"

// start wraps fn in the task's coroutine. The body runs no code until the
// driver first resumes it, at the task's first dispatch.
func (t *Task) start(fn func(*Task)) {
	t.resume, _ = iter.Pull(func(yield func(dispatch) bool) {
		t.yield = yield
		fn(t)
	})
}

// park runs the dispatch step inside the parking task. If the next event is
// this task's own wake it returns at once, with no switch; otherwise it
// yields the popped dispatch to the driver and suspends until resumed.
func (t *Task) park() wakeCause {
	e := t.eng
	d := e.next()
	if d.task == t {
		e.stats.InlineResumes++
		return d.cause
	}
	t.yield(d)
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
