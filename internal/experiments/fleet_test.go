package experiments

import (
	"runtime"
	"testing"
	"time"

	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/sim"
)

// TestFleetCloseReleasesDaemons boots a small fleet, converges one app
// on it and closes it, 20 times over. Each run stops at a RunUntil limit
// with every host's daemons — HA, the controller, rshd, migd, the NFS
// servers, the replicas — parked in the engine, so only Close gives
// their goroutines back: the count must return to its baseline.
func TestFleetCloseReleasesDaemons(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		f, err := newFleet(6, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.start(a13Path, a13ServiceSrc, 2, ha.Config{Interval: sim.Second},
			controller.Config{Period: 2 * sim.Second}); err != nil {
			t.Fatal(err)
		}
		if err := f.c.Controller().Submit(controller.AppSpec{
			Name: "svc", Path: a13Path, Replicas: 2, Avoid: []string{"h000"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.stepUntil("rollout", 60*sim.Second, 0, f.converged); err != nil {
			t.Fatal(err)
		}
		if parked := runtime.NumGoroutine() - base; parked < 12 {
			t.Fatalf("run %d: only %d goroutines parked in a live 6-host fleet", i, parked)
		}
		f.Close()
	}
	// A goroutine that has just finished may take a moment to be counted
	// out; a leak of even one fleet's daemons would not.
	leaked := 0
	for try := 0; try < 50; try++ {
		if leaked = runtime.NumGoroutine() - base; leaked <= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d goroutines left after closing 20 fleets", leaked)
}
