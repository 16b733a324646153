package sim_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"procmig/internal/sim"
)

// dispatchGolden is the digest of dispatchMix's trace. Every entry in the
// trace is a task resuming (from its start, a Sleep, Yield, Wait,
// WaitTimeout or a CPU slice) stamped with the virtual time, the task and
// what woke it, and the digest folds in the engine's final counters. A
// change to event order, wake causes or the Stats bookkeeping moves it.
const dispatchGolden = 0xb1785cea45a5e677

// dispatchMix runs a seeded mix of every engine primitive and returns the
// resumption trace plus the engine's final stats. The mix covers Sleep,
// Yield, Wait, WaitTimeout (with timeouts that coincide with a waker tick),
// WakeTask, Go from inside tasks, task exit and Resource.Use.
func dispatchMix(seed uint64) ([]string, sim.Stats, error) {
	const workers, rounds = 24, 120
	e := sim.NewEngine()
	e.Seed(seed)
	var trace []string
	rec := func(t *sim.Task, what string) {
		trace = append(trace, fmt.Sprintf("%d %s %s", t.Now(), t.Name(), what))
	}
	var q sim.Queue
	cpu := sim.NewResource(sim.Millisecond, 100*sim.Microsecond)
	tasks := make([]*sim.Task, workers)
	done := 0
	for i := range tasks {
		name := fmt.Sprintf("w%d", i)
		tasks[i] = e.Go(name, func(t *sim.Task) {
			rec(t, "start")
			for r := 0; r < rounds; r++ {
				switch e.Rand() % 8 {
				case 0:
					t.Sleep(sim.Duration(e.Rand()%3) * sim.Millisecond)
					rec(t, "sleep")
				case 1:
					t.Yield()
					rec(t, "yield")
				case 2:
					t.Wait(&q)
					rec(t, "wait")
				case 3:
					// The waker ticks on whole milliseconds, so a whole
					// millisecond timeout often coincides with a wake.
					woken := t.WaitTimeout(&q, sim.Duration(1+e.Rand()%2)*sim.Millisecond)
					rec(t, fmt.Sprintf("waittimeout=%v", woken))
				case 4:
					peer := tasks[e.Rand()%workers]
					rec(t, fmt.Sprintf("waketask=%v", q.WakeTask(peer)))
					t.Yield()
					rec(t, "yield")
				case 5:
					child := fmt.Sprintf("%s.%d", name, r)
					d := sim.Duration(e.Rand()%1500) * sim.Microsecond
					e.Go(child, func(c *sim.Task) {
						rec(c, "start")
						c.Sleep(d)
						rec(c, "sleep")
					})
					t.Yield()
					rec(t, "yield")
				case 6:
					d := sim.Duration(1+e.Rand()%4) * 500 * sim.Microsecond
					cpu.Use(t, d, func(s sim.Duration) { rec(t, fmt.Sprintf("slice=%d", s)) })
				case 7:
					t.Sleep(sim.Duration(e.Rand()%700) * sim.Microsecond)
					rec(t, "sleep")
				}
			}
			done++
		})
	}
	e.Go("waker", func(t *sim.Task) {
		rec(t, "start")
		for done < workers {
			rec(t, fmt.Sprintf("wakeall=%d", q.WakeAll()))
			t.Sleep(sim.Duration(1+e.Rand()%3) * sim.Millisecond)
			rec(t, "sleep")
		}
	})
	err := e.Run()
	return trace, e.Stats(), err
}

func TestDispatchSequenceGolden(t *testing.T) {
	trace, st, err := dispatchMix(20260417)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, line := range trace {
		fmt.Fprintln(h, line)
	}
	fmt.Fprintf(h, "dispatched=%d scheduled=%d runqueued=%d canceled=%d allocs=%d heapmax=%d\n",
		st.Dispatched, st.Scheduled, st.RunQueued, st.Canceled, st.EventAllocs, st.HeapMax)
	// The mix must actually exercise every primitive it claims to.
	for _, want := range []string{" wait", "waittimeout=true", "waittimeout=false",
		"waketask=true", "slice=", ".3 start", " yield"} {
		found := false
		for _, line := range trace {
			if strings.Contains(line, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mix never produced %q", want)
		}
	}
	if got := h.Sum64(); got != dispatchGolden {
		t.Fatalf("dispatch digest = %#x, want %#x (%d resumptions, stats %+v)",
			got, uint64(dispatchGolden), len(trace), st)
	}
}
