package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// The tests below pin what running task bodies as coroutines promises:
// a task's panic reaches the RunUntil caller, a spawned body stays
// unstarted until its first dispatch, a stopped run resumes from any
// goroutine, and Close releases every task a stopped run left parked.

type taskPanic struct{ code int }

func TestTaskPanicSurfacesFromRunUntil(t *testing.T) {
	e := NewEngine()
	want := &taskPanic{code: 7}
	var after bool
	e.Go("bystander", func(tk *Task) {
		tk.Sleep(2 * Millisecond)
		after = true
	})
	e.Go("crasher", func(tk *Task) {
		tk.Sleep(Millisecond)
		panic(want)
	})
	got := func() (p any) {
		defer func() { p = recover() }()
		e.Run()
		return nil
	}()
	if got != want {
		t.Fatalf("RunUntil panicked with %#v, want the task's own value %#v", got, want)
	}
	if after || e.Now() != Time(Millisecond) {
		t.Fatalf("after the panic: bystander ran %v, now %d", after, e.Now())
	}
}

func TestTaskErrorPanicKeepsIdentity(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("task failed")
	e.Go("crasher", func(tk *Task) { panic(sentinel) })
	defer func() {
		if p := recover(); p != sentinel {
			t.Fatalf("recovered %v, want the sentinel error", p)
		}
	}()
	e.Run()
	t.Fatal("Run returned after a task panic")
}

func TestGoAfterRunsNoCodeBeforeFirstDispatch(t *testing.T) {
	e := NewEngine()
	var started []Time
	var child *Task
	e.Go("parent", func(tk *Task) {
		child = e.GoAfter("child", 3*Millisecond, func(c *Task) {
			started = append(started, c.Now())
		})
		// The spawn alone must not run the body, not even up to a park.
		if len(started) != 0 {
			t.Errorf("child body ran at spawn")
		}
		tk.Sleep(2 * Millisecond)
		if len(started) != 0 {
			t.Errorf("child body ran before its dispatch, at %v", started)
		}
	})
	if len(started) != 0 {
		t.Fatal("body ran before RunUntil")
	}
	if err := e.RunUntil(Time(2500 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(started) != 0 || child == nil {
		t.Fatalf("child started %v before its 3 ms dispatch", started)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(started, []Time{Time(3 * Millisecond)}) {
		t.Fatalf("child started at %v, want [3000]", started)
	}
}

func TestRunUntilResumesFromAnotherGoroutine(t *testing.T) {
	e := NewEngine()
	var q Queue
	var trace []Time
	e.Go("sleeper", func(tk *Task) {
		for i := 0; i < 4; i++ {
			tk.Sleep(Second)
			trace = append(trace, tk.Now())
		}
		q.Wake(1)
	})
	e.Go("waiter", func(tk *Task) {
		tk.Wait(&q)
		trace = append(trace, -tk.Now())
	})
	if err := e.RunUntil(Time(2500 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || e.Current() != nil {
		t.Fatalf("first run: trace %v, current %v", trace, e.Current())
	}
	done := make(chan error)
	go func() { done <- e.Run() }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second), Time(4 * Second), -Time(4 * Second)}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	if st := e.Stats(); st.Dispatched != 7 {
		t.Fatalf("dispatched %d, want 7", st.Dispatched)
	}
}

// TestCloseUnwindsParkedTasks: after a run stops at its limit, Close ends
// every task — parked in Wait, in Sleep, or never dispatched — runs the
// parked bodies' deferred calls (one of which parks again, another of
// which spawns a task), and gives back every task's goroutine.
func TestCloseUnwindsParkedTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q Queue
	const n = 200
	unwound, spawnedRan, lateRan := 0, false, false
	for i := 0; i < n; i++ {
		e.Go("waiter", func(tk *Task) {
			defer func() { unwound++ }()
			tk.Wait(&q)
			t.Error("waiter resumed past its Wait")
		})
	}
	e.Go("sleeper", func(tk *Task) {
		defer func() { unwound++ }()
		defer tk.Sleep(Second) // parks again while unwinding
		defer e.Go("spawned", func(*Task) { spawnedRan = true })
		tk.Sleep(100 * Second)
	})
	e.GoAfter("late", 100*Second, func(*Task) { lateRan = true })
	if err := e.RunUntil(Time(Second)); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine() - base; got < n {
		t.Fatalf("only %d extra goroutines with %d parked tasks", got, n+2)
	}
	st := e.Stats()
	e.Close()
	if unwound != n+1 || spawnedRan || lateRan {
		t.Fatalf("unwound %d bodies (want %d); spawned ran %v, late ran %v",
			unwound, n+1, spawnedRan, lateRan)
	}
	if len(e.tasks) != 0 || e.nlive != 0 || e.Stats().Dispatched != st.Dispatched {
		t.Fatalf("after Close: %d tasks, nlive %d, dispatched %d (before %d)",
			len(e.tasks), e.nlive, e.Stats().Dispatched, st.Dispatched)
	}
	if got := runtime.NumGoroutine() - base; got > 2 {
		t.Fatalf("%d goroutines left after Close", got)
	}
}

// TestCloseRepanicsForeignPanic: a deferred call that panics with its own
// value while Close unwinds its body surfaces from Close, not swallowed.
func TestCloseRepanicsForeignPanic(t *testing.T) {
	e := NewEngine()
	want := &taskPanic{code: 9}
	e.Go("bad", func(tk *Task) {
		defer func() { panic(want) }()
		tk.Sleep(100 * Second)
	})
	if err := e.RunUntil(Time(Second)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != want {
			t.Fatalf("Close panicked with %#v, want %#v", p, want)
		}
	}()
	e.Close()
	t.Fatal("Close returned after a foreign panic")
}
