package sim

import (
	"reflect"
	"testing"
)

// The tests below pin the dispatch loop: the parking task runs the dispatch
// step itself and carries on without a switch when it woke itself; any
// other dispatch goes back to RunUntil, which resumes that task.

func TestInlineResumesSingleSleeper(t *testing.T) {
	e := NewEngine()
	e.Go("solo", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Sleep(Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every Sleep wakes the sleeper itself; only the start (resumed by
	// RunUntil) needs a switch.
	st := e.Stats()
	if st.InlineResumes != 100 || st.Dispatched != 101 {
		t.Fatalf("inline resumes %d of %d dispatches, want 100 of 101", st.InlineResumes, st.Dispatched)
	}
}

func TestInlineResumesAlternatingPair(t *testing.T) {
	e := NewEngine()
	for _, name := range []string{"ping", "pong"} {
		e.Go(name, func(tk *Task) {
			for i := 0; i < 50; i++ {
				tk.Sleep(Millisecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each instant wakes both tasks in turn: every dispatch switches.
	if st := e.Stats(); st.InlineResumes != 0 || st.Dispatched != 102 {
		t.Fatalf("inline resumes %d of %d dispatches, want 0 of 102", st.InlineResumes, st.Dispatched)
	}
}

func TestRunUntilResumesParkedTasks(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var q Queue
	var woke Time
	e.Go("ticker", func(tk *Task) {
		for i := 0; i < 5; i++ {
			tk.Sleep(Second)
			ticks = append(ticks, tk.Now())
		}
	})
	e.Go("waiter", func(tk *Task) {
		tk.Wait(&q)
		woke = tk.Now()
	})
	e.Go("waker", func(tk *Task) {
		tk.Sleep(4 * Second)
		q.Wake(1)
	})
	// The ticker parks at 2 s with its next wake past the limit, so its
	// own dispatch step ends the run with every task still parked.
	if err := e.RunUntil(Time(2500 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 || e.Now() != Time(2*Second) || woke != 0 {
		t.Fatalf("after RunUntil: ticks %v, now %d, woke %d", ticks, e.Now(), woke)
	}
	if e.Current() != nil {
		t.Fatal("Current() after RunUntil should be nil")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Second), Time(2 * Second), Time(3 * Second), Time(4 * Second), Time(5 * Second)}
	if !reflect.DeepEqual(ticks, want) || woke != Time(4*Second) {
		t.Fatalf("after Run: ticks %v, woke %d", ticks, woke)
	}
	if e.Current() != nil {
		t.Fatal("Current() after Run should be nil")
	}
}

func TestStallAfterDirectHandoff(t *testing.T) {
	e := NewEngine()
	var qa, qb Queue
	// a starts, sleeps and hands off to b's start; b waits and hands back
	// to a's timer; a then waits with nothing left and must report the
	// stall from its own dispatch step.
	e.Go("a", func(tk *Task) {
		tk.Sleep(Millisecond)
		tk.Wait(&qa)
	})
	e.Go("b", func(tk *Task) { tk.Wait(&qb) })
	err := e.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("err = %v, want StallError", err)
	}
	if se.At != Time(Millisecond) || !reflect.DeepEqual(se.Blocked, []string{"a", "b"}) {
		t.Fatalf("stall = %+v", se)
	}
	if e.Current() != nil {
		t.Fatal("Current() after a stall should be nil")
	}
	if st := e.Stats(); st.Dispatched != 3 || st.InlineResumes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The parked tasks are still there: a second run stalls the same way.
	if err := e.Run(); !reflect.DeepEqual(err, se) {
		t.Fatalf("second Run = %v, want %v", err, se)
	}
}

func TestLastTaskExitEndsRun(t *testing.T) {
	e := NewEngine()
	var order []string
	var sawCurrent *Task
	e.Go("parent", func(tk *Task) {
		order = append(order, "parent")
		e.Go("child", func(c *Task) {
			sawCurrent = e.Current()
			order = append(order, "child")
		})
		// parent exits here; RunUntil then starts the child.
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"parent", "child"}) || sawCurrent == nil || sawCurrent.Name() != "child" {
		t.Fatalf("order %v, child saw current %v", order, sawCurrent)
	}
	if e.Current() != nil {
		t.Fatal("Current() after the last exit should be nil")
	}
	// Nothing is left: another run returns at once.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Dispatched != 2 || st.InlineResumes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
