package experiments

import (
	"testing"

	"procmig/internal/scenario"
)

// TestA7SingleRun: one lossy migration commits, keeps exactly one live
// copy, and lands it on the destination.
func TestA7SingleRun(t *testing.T) {
	pt, err := a7Point(scenario.A7Table("64K/8K", 64<<10, 8<<10, 10, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Committed || !pt.Migrated {
		t.Fatalf("10%% drop run: committed=%v migrated=%v", pt.Committed, pt.Migrated)
	}
	if pt.Freeze <= 0 || pt.Total <= pt.Freeze {
		t.Fatalf("implausible timings: freeze %v total %v", pt.Freeze, pt.Total)
	}
}

// TestA7CrashRun: a scripted mid-round destination crash aborts the
// transaction and the single live copy is the original on the source.
func TestA7CrashRun(t *testing.T) {
	pt, err := a7Point(scenario.A7Table("64K/8K", 64<<10, 8<<10, 0, true, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Committed || pt.Migrated {
		t.Fatalf("crash run: committed=%v migrated=%v, want an abort", pt.Committed, pt.Migrated)
	}
}

// TestA7Deterministic: the same seed reproduces identical timings even at
// a high fault rate; the table draws every fault from the cluster PRNG.
func TestA7Deterministic(t *testing.T) {
	a, err := a7Point(scenario.A7Table("64K/8K", 64<<10, 8<<10, 20, false, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := a7Point(scenario.A7Table("64K/8K", 64<<10, 8<<10, 20, false, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Freeze != b.Freeze || a.Total != b.Total || a.Committed != b.Committed {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
