package sim

import (
	"errors"
	"reflect"
	"testing"
)

// The tests below pin what running task bodies as coroutines promises:
// a task's panic reaches the RunUntil caller, a spawned body stays
// unstarted until its first dispatch, and a stopped run resumes from any
// goroutine.

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
