package experiments

import (
	"fmt"
	"math"

	"procmig/internal/scenario"
	"procmig/internal/sim"
)

// --- A7/A8: the fault experiments, run from their scenario tables -------------

// A7Point is one migration run of the a6 memory hog under an adversarial
// network: a per-port chunk drop/duplication rate, or a scripted
// destination crash in the middle of the first pre-copy round.
//
// The invariant the sweep checks — the whole point of the transactional
// protocol — is LiveCopies == 1 in every row: however the run ends, there
// is exactly one live copy of the process, on the destination when the
// transaction committed and still on the source when it aborted. Freeze
// and Total show what the faults cost: retries stretch the transfer, but
// only faults inside the final frozen round stretch the freeze.
type A7Point struct {
	Label      string // image/working-set size
	DropPct    int    // chunk drop percentage (duplication runs at half)
	Crash      bool   // scripted mid-round destination crash instead of drops
	Committed  bool   // rmigrate reported success
	Migrated   bool   // the live copy is on the destination
	LiveCopies int    // total live copies of the process, must be 1

	Freeze sim.Duration // source kernel's dump window
	Total  sim.Duration // rmigrate real time
}

// A8Point is one scripted-crash run of the guardian service: a counting
// memory hog on alpha is protected with beta as its buddy, delta
// checkpoints flow every Interval, and alpha is crashed mid-interval while
// the control-plane ports drop 0–20% of their traffic.
//
// The invariants every row must satisfy are the availability contract:
// exactly one live copy of the process after the crash (the buddy's
// restart, never a second copy of a still-alive source), the protected
// process resumed from the newest committed checkpoint, and the work lost
// to the crash bounded by one checkpoint interval. LostWork is measured in
// the program's own units: the hog increments a counter in its data
// segment, so the counter gap between the crash instant and the restored
// copy, divided by the pre-crash counting rate, is the replayed time.
type A8Point struct {
	Interval    sim.Duration // checkpoint period
	DropPct     int          // control-plane chunk drop percentage
	Checkpoints int          // checkpoints committed on the buddy before the crash
	Recovery    sim.Duration // crash → restored copy live on the buddy
	LostWork    sim.Duration // replayed execution, from the counter gap
	BoundOK     bool         // LostWork ≤ Interval + slack
	LiveCopies  int          // must be exactly 1
	Resumed     bool         // the buddy's restart reported a live copy
}

// a8BoundSlack covers the measurement slop: the crash-scheduling poll
// granularity and the instants where the victim is frozen inside an
// in-flight transfer (frozen time does no work, so it never adds to the
// counter gap — only to the wall-clock conversion).
const a8BoundSlack = 2 * sim.Second

// A7FaultSweep runs every cell of scenario.A7Tables. The same seed
// reproduces the same table bit for bit — every drop, duplication, and
// retry is drawn from the cluster engine's PRNG.
func A7FaultSweep(seed uint64) ([]*A7Point, error) { return sweep(scenario.A7Tables(seed), a7Point) }

// A8FaultSweep runs every cell of scenario.A8Tables: checkpoint intervals
// × drop rates, one scripted crash each. Deterministic per seed.
func A8FaultSweep(seed uint64) ([]*A8Point, error) { return sweep(scenario.A8Tables(seed), a8Point) }

// sweep runs every table in order and maps each result to a row, stopping
// at the first table that errs or breaks a check.
func sweep[P any](tables []*scenario.Scenario, row func(*scenario.Scenario) (*P, error)) ([]*P, error) {
	out := make([]*P, 0, len(tables))
	for _, sc := range tables {
		pt, err := row(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// a7Point runs one A7 table and fails unless its row ends with exactly
// one live copy, on the destination exactly when the transaction
// committed.
func a7Point(sc *scenario.Scenario) (*A7Point, error) {
	res, err := runTable(sc)
	if err != nil {
		return nil, err
	}
	if len(res.Migrations) != 1 {
		return nil, fmt.Errorf("%s: %d migrations, want 1", sc.Name, len(res.Migrations))
	}
	mig, wl, hog := res.Migrations[0], res.Workloads["hog"], sc.Workloads[0]
	pt := &A7Point{
		Label:     fmt.Sprintf("%dK/%dK", hog.TotalBytes>>10, hog.WSBytes>>10),
		Committed: mig.Committed, Migrated: wl.Migrated, LiveCopies: wl.LiveCopies,
		Freeze: mig.Freeze, Total: mig.Total,
	}
	pt.DropPct, pt.Crash = tableFault(sc)
	if pt.LiveCopies != 1 {
		return nil, fmt.Errorf("%s: %d live copies, want exactly 1", sc.Name, pt.LiveCopies)
	}
	if pt.Committed != pt.Migrated {
		return nil, fmt.Errorf("%s: committed=%v but migrated=%v", sc.Name, pt.Committed, pt.Migrated)
	}
	return pt, nil
}

// a8Point runs one A8 table and fails unless its row ends with exactly
// one live copy, resumed by the buddy, with lost work inside one
// checkpoint interval plus slack.
func a8Point(sc *scenario.Scenario) (*A8Point, error) {
	res, err := runTable(sc)
	if err != nil {
		return nil, err
	}
	if len(res.Recoveries) != 1 {
		return nil, fmt.Errorf("%s: %d recoveries, want 1", sc.Name, len(res.Recoveries))
	}
	rec := res.Recoveries[0]
	pt := &A8Point{
		Interval: sc.HA.CkptInterval, Checkpoints: rec.Checkpoints,
		Recovery: rec.Recovery, LostWork: rec.LostWork,
		LiveCopies: res.Workloads["hog"].LiveCopies, Resumed: rec.Resumed,
	}
	pt.DropPct, _ = tableFault(sc)
	pt.BoundOK = pt.LostWork <= pt.Interval+a8BoundSlack
	if pt.LiveCopies != 1 {
		return nil, fmt.Errorf("%s: %d live copies, want exactly 1", sc.Name, pt.LiveCopies)
	}
	if !pt.Resumed {
		return nil, fmt.Errorf("%s: restart status nonzero", sc.Name)
	}
	if !pt.BoundOK {
		return nil, fmt.Errorf("%s: lost work %v exceeds interval %v + slack", sc.Name, pt.LostWork, pt.Interval)
	}
	return pt, nil
}

// runTable runs a scenario and turns its first invariant violation into
// an error.
func runTable(sc *scenario.Scenario) (*scenario.Result, error) {
	res, err := scenario.Run(sc)
	if err != nil {
		return nil, err
	}
	if v := res.FirstViolation(); v != nil {
		return nil, fmt.Errorf("%s: %v", sc.Name, v)
	}
	return res, nil
}

// tableFault reads a table's fault back from its schedule: the chunk-drop
// percentage its fault_port events set, and whether it scripts a crash.
func tableFault(sc *scenario.Scenario) (dropPct int, crash bool) {
	for _, ev := range sc.Events {
		switch ev.Op {
		case "fault_port":
			dropPct = int(math.Round(ev.Drop * 100))
		case "crash_after":
			crash = true
		}
	}
	return dropPct, crash
}
