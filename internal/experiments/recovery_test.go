package experiments

import (
	"testing"

	"procmig/internal/scenario"
	"procmig/internal/sim"
)

// TestA8SingleRun: a clean-network crash recovers the protected hog on
// the buddy with lost work inside one checkpoint interval.
func TestA8SingleRun(t *testing.T) {
	pt, err := a8Point(scenario.A8Table(2*sim.Second, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pt.LiveCopies != 1 || !pt.Resumed {
		t.Fatalf("recovery run: %+v", pt)
	}
	if pt.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints committed before the crash", pt.Checkpoints)
	}
	if !pt.BoundOK {
		t.Fatalf("lost work %v exceeds the %v interval bound", pt.LostWork, pt.Interval)
	}
	if pt.Recovery <= 0 || pt.Recovery > 30*sim.Second {
		t.Fatalf("implausible recovery time %v", pt.Recovery)
	}
}

// TestA8LossyRun: the same crash under 20% control-plane drops still
// recovers exactly one live copy (retries and generation resyncs do the
// work).
func TestA8LossyRun(t *testing.T) {
	pt, err := a8Point(scenario.A8Table(2*sim.Second, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	if pt.LiveCopies != 1 || !pt.Resumed || !pt.BoundOK {
		t.Fatalf("lossy recovery run: %+v", pt)
	}
}

// TestA8Deterministic: the same seed reproduces the same recovery timings
// and counter arithmetic at a high drop rate.
func TestA8Deterministic(t *testing.T) {
	a, err := a8Point(scenario.A8Table(2*sim.Second, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := a8Point(scenario.A8Table(2*sim.Second, 20, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Recovery != b.Recovery || a.LostWork != b.LostWork || a.Checkpoints != b.Checkpoints {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
