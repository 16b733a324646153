package scenario_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"procmig/internal/scenario"
	"procmig/internal/sim"
)

// --- chaos smoke --------------------------------------------------------------

// TestChaosSeeds runs the generated chaos scenario for a handful of seeds:
// every invariant must hold on every run, and a fixed seed must reproduce
// the identical result.
func TestChaosSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sc := scenario.Chaos(seed)
		res, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		if !res.Passed() {
			t.Fatalf("chaos seed %d: %v", seed, res.FirstViolation())
		}
		if len(res.Migrations) == 0 {
			t.Errorf("chaos seed %d: no migrations ran — generator produced a dull schedule", seed)
		}
		if len(res.Recoveries) != 1 {
			t.Errorf("chaos seed %d: %d recoveries, want exactly 1", seed, len(res.Recoveries))
		}
	}
}

func TestChaosDeterministic(t *testing.T) {
	a, err := scenario.Run(scenario.Chaos(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(scenario.Chaos(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestScenarioJSONRoundTrip: a chaos scenario survives Encode/Decode —
// the artifact format carries the full schedule.
func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := scenario.Chaos(42)
	raw, err := sc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenario.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatal("scenario did not survive the JSON round trip")
	}
}

// --- A7/A8 golden tables -------------------------------------------------------

// a7Golden is every cell of A7Tables(1), in order, as recorded before the
// hand-coded A7 sweep was deleted (the tables matched it bit for bit):
// committed, migrated, live copies, then total and freeze in µs.
var a7Golden = []struct {
	committed, migrated bool
	live                int
	total, freeze       sim.Duration
}{
	{true, true, 1, 2866173, 833902},   // a7-64K/8K-drop0-crashfalse
	{true, true, 1, 16019322, 835678},  // a7-64K/8K-drop5-crashfalse
	{true, true, 1, 12107949, 835678},  // a7-64K/8K-drop10-crashfalse
	{true, true, 1, 28870712, 3838441}, // a7-64K/8K-drop20-crashfalse
	{false, false, 1, 74790717, 0},     // a7-64K/8K-drop0-crashtrue
	{true, true, 1, 8934597, 2228470},  // a7-256K/16K-drop0-crashfalse
	{true, true, 1, 24937027, 2230900}, // a7-256K/16K-drop5-crashfalse
	{true, true, 1, 42434353, 5354681}, // a7-256K/16K-drop10-crashfalse
	{true, true, 1, 74825941, 7359818}, // a7-256K/16K-drop20-crashfalse
	{false, false, 1, 74777597, 0},     // a7-256K/16K-drop0-crashtrue
}

// a8Golden is every cell of A8Tables(1), recorded the same way:
// checkpoints, resumed, live copies, then recovery and lost work in µs.
var a8Golden = []struct {
	ckpts          int
	resumed        bool
	live           int
	recovery, lost sim.Duration
}{
	{2, true, 1, 5500000, 959998},  // a8-iv2.000s-drop0
	{2, true, 1, 5500000, 959998},  // a8-iv2.000s-drop10
	{2, true, 1, 4250000, 0},       // a8-iv2.000s-drop20
	{2, true, 1, 5000000, 2459996}, // a8-iv5.000s-drop0
	{2, true, 1, 4750000, 2459996}, // a8-iv5.000s-drop10
	{2, true, 1, 3000000, 2439994}, // a8-iv5.000s-drop20
}

// goldenResults runs one sweep's tables at seed 1 ("a7" or "a8") in a
// fresh copy of this test binary and returns their results in table
// order. A fresh process is what the recorded cells describe: simulated
// message sizes depend on encoding/gob's process-global type ids, handed
// out in first-use order, so tests that ran earlier in this process (the
// chaos seeds, say) move some cells by a few microseconds.
func goldenResults(t *testing.T, sweep string) []*scenario.Result {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenSweepChild$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GOLDEN_SWEEP="+sweep, "GOLDEN_OUT="+out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s sweep child: %v\n%s", sweep, err, msg)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []*scenario.Result
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestGoldenSweepChild is the fresh process goldenResults starts: it runs
// the sweep named by GOLDEN_SWEEP and writes the results to GOLDEN_OUT.
// Run any other way, it skips.
func TestGoldenSweepChild(t *testing.T) {
	var tables []*scenario.Scenario
	switch os.Getenv("GOLDEN_SWEEP") {
	case "a7":
		tables = scenario.A7Tables(1)
	case "a8":
		tables = scenario.A8Tables(1)
	default:
		t.Skip("runs only as the child process of the golden sweep tests")
	}
	var results []*scenario.Result
	for _, sc := range tables {
		res, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		results = append(results, res)
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("GOLDEN_OUT"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestA7TableGolden runs the A7 sweep's tables once and holds every cell
// to its recorded outcome: a table edit, a runner change or a protocol
// change that moves any migration shows up here.
func TestA7TableGolden(t *testing.T) {
	results := goldenResults(t, "a7")
	if len(results) != len(a7Golden) {
		t.Fatalf("%d tables ran, %d golden cells", len(results), len(a7Golden))
	}
	for i, res := range results {
		if !res.Passed() {
			t.Fatalf("%s: %v", res.Name, res.FirstViolation())
		}
		if len(res.Migrations) != 1 {
			t.Fatalf("%s: %d migrations, want 1", res.Name, len(res.Migrations))
		}
		mig, wl, want := res.Migrations[0], res.Workloads["hog"], a7Golden[i]
		if mig.Committed != want.committed || wl.Migrated != want.migrated || wl.LiveCopies != want.live {
			t.Errorf("%s: committed/migrated/live = %v/%v/%d, golden %v/%v/%d",
				res.Name, mig.Committed, wl.Migrated, wl.LiveCopies, want.committed, want.migrated, want.live)
		}
		if mig.Total != want.total || mig.Freeze != want.freeze {
			t.Errorf("%s: total/freeze = %d/%d µs, golden %d/%d",
				res.Name, mig.Total, mig.Freeze, want.total, want.freeze)
		}
	}
}

// TestA8TableGolden: the same for the recovery sweep's tables.
func TestA8TableGolden(t *testing.T) {
	results := goldenResults(t, "a8")
	if len(results) != len(a8Golden) {
		t.Fatalf("%d tables ran, %d golden cells", len(results), len(a8Golden))
	}
	for i, res := range results {
		if !res.Passed() {
			t.Fatalf("%s: %v", res.Name, res.FirstViolation())
		}
		if len(res.Recoveries) != 1 {
			t.Fatalf("%s: %d recoveries, want 1", res.Name, len(res.Recoveries))
		}
		rec, wl, want := res.Recoveries[0], res.Workloads["hog"], a8Golden[i]
		if rec.Checkpoints != want.ckpts || rec.Resumed != want.resumed || wl.LiveCopies != want.live {
			t.Errorf("%s: ckpts/resumed/live = %d/%v/%d, golden %d/%v/%d",
				res.Name, rec.Checkpoints, rec.Resumed, wl.LiveCopies, want.ckpts, want.resumed, want.live)
		}
		if rec.Recovery != want.recovery || rec.LostWork != want.lost {
			t.Errorf("%s: recovery/lost work = %d/%d µs, golden %d/%d",
				res.Name, rec.Recovery, rec.LostWork, want.recovery, want.lost)
		}
	}
}

// --- negative tests: each invariant must catch its deliberate violation ------

// negBase is a quiet two-workload cluster the injections land on.
func negBase() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "neg",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		Workloads: []scenario.Workload{
			{Name: "hog", Host: "alpha", Prog: "hog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		Events: []scenario.Event{
			{Op: "await_ready", Workload: "hog"},
			{Op: "sleep", Dur: 2 * sim.Second},
		},
	}
}

// expectViolation runs the scenario and asserts the first violation names
// the right invariant at the right event index.
func expectViolation(t *testing.T, sc *scenario.Scenario, invariant string, eventIndex int) *scenario.Result {
	t.Helper()
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	v := res.FirstViolation()
	if v == nil {
		t.Fatalf("%s: expected a %s violation, run passed", sc.Name, invariant)
	}
	if v.Invariant != invariant || v.EventIndex != eventIndex {
		t.Fatalf("%s: first violation %v, want %s at event %d", sc.Name, v, invariant, eventIndex)
	}
	if eventIndex >= 0 && res.Events != eventIndex+1 {
		t.Errorf("%s: runner executed %d events, want it to stop right after event %d",
			sc.Name, res.Events, eventIndex)
	}
	return res
}

func TestNegativeLiveCopy(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-live-copy"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_dup", Workload: "hog", Host: "beta"})
	expectViolation(t, sc, "live-copy", 2)
}

func TestNegativeConservation(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-conservation"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_kill", Workload: "hog"})
	expectViolation(t, sc, "conservation", 2)
}

func TestNegativeCounterMonotonic(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-counter"
	// Two bumps: the first registers the probe counter with the checker,
	// the second moves it backwards.
	sc.Events = append(sc.Events,
		scenario.Event{Op: "counter_bump", Host: "alpha", N: 10},
		scenario.Event{Op: "counter_bump", Host: "alpha", N: -5},
	)
	expectViolation(t, sc, "counter-monotonic", 3)
}

// TestNegativeSplitBrain: a full partition between a protected process
// and its buddy defeats arbitration — the probe cannot reach the live
// source, the guardian restarts it anyway, and the checker must call the
// resulting second copy a split brain.
func TestNegativeSplitBrain(t *testing.T) {
	sc := &scenario.Scenario{
		Name:  "neg-split-brain",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		HA:    &scenario.HAConfig{Interval: sim.Second, CkptInterval: 2 * sim.Second},
		Workloads: []scenario.Workload{
			{Name: "hog", Host: "alpha", Prog: "counterhog", TotalBytes: 32 << 10, WSBytes: 4 << 10},
		},
		Events: []scenario.Event{
			{Op: "await_ready", Workload: "hog"},
			{Op: "protect", Workload: "hog", To: "beta"},
			{Op: "await_ckpt", Workload: "hog", N: 2},
			{Op: "partition", Groups: [][]string{{"alpha"}, {"beta", "gamma"}}},
			{Op: "sleep", Dur: 45 * sim.Second},
		},
		// The split-brain verdict is the point; the duplicate copy and the
		// divergent membership views are its side effects.
		Invariants: scenario.Invariants{SkipLiveCopy: true, SkipMembership: true},
	}
	expectViolation(t, sc, "split-brain", 4)
}

// TestNegativeMembership: a crash with no settle time leaves the
// survivors still believing the dead host is alive at quiesce.
func TestNegativeMembership(t *testing.T) {
	sc := &scenario.Scenario{
		Name:  "neg-membership",
		Seed:  5,
		Hosts: []string{"alpha", "beta", "gamma"},
		HA:    &scenario.HAConfig{Interval: sim.Second},
		Events: []scenario.Event{
			{Op: "sleep", Dur: 10 * sim.Second}, // converge first
			{Op: "crash", Host: "gamma"},
		},
	}
	expectViolation(t, sc, "membership", -1)
}

// --- replay artifact ----------------------------------------------------------

// TestArtifactReplay: a failing run emits an artifact that replays to the
// same violation through the JSON round trip.
func TestArtifactReplay(t *testing.T) {
	sc := negBase()
	sc.Name = "neg-artifact"
	sc.Events = append(sc.Events, scenario.Event{Op: "inject_dup", Workload: "hog", Host: "beta"})
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	art := scenario.NewArtifact(sc, res)
	if art == nil {
		t.Fatal("failing run produced no artifact")
	}
	path := filepath.Join(t.TempDir(), "replay.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := scenario.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := back.Replay()
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := res.FirstViolation(), res2.FirstViolation()
	if v2 == nil || v1.Invariant != v2.Invariant || v1.EventIndex != v2.EventIndex || v1.At != v2.At {
		t.Fatalf("replayed violation %v, original %v", v2, v1)
	}
	if scenario.NewArtifact(sc, res2) == nil {
		t.Fatal("replay of a failing artifact passed")
	}
}

// --- controller ops -----------------------------------------------------------

// ctlBase is a four-host cluster with a controller on alpha and one
// three-replica app ready to submit.
func ctlBase() *scenario.Scenario {
	return &scenario.Scenario{
		Name:       "ctl",
		Seed:       5,
		Hosts:      []string{"alpha", "beta", "gamma", "delta"},
		HA:         &scenario.HAConfig{Interval: sim.Second},
		Controller: &scenario.ControllerConfig{Host: "alpha", Period: 2 * sim.Second},
		Apps: []scenario.App{
			{Name: "web", Prog: "hog", TotalBytes: 32 << 10, WSBytes: 4 << 10, Replicas: 3},
		},
	}
}

// TestScenarioControllerDrain: submit an app, converge, drain a host the
// app landed on, and hold every invariant — including the new
// replicas-converged check — at quiesce. The drained host must end with
// zero replicas while the count stays at desired.
func TestScenarioControllerDrain(t *testing.T) {
	sc := ctlBase()
	sc.Name = "ctl-drain"
	// One replica per host, four hosts, three replicas: whichever host
	// stays free is the headroom the drain needs to be feasible.
	sc.Apps[0].AntiAffinity = true
	sc.Events = []scenario.Event{
		{Op: "sleep", Dur: 5 * sim.Second}, // membership converges
		{Op: "submit_app", App: "web"},
		{Op: "await_converged"},
		{Op: "drain_host", Host: "delta"},
		{Op: "await_converged"},
	}
	sc.Settle = 5 * sim.Second
	res, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatal(res.FirstViolation())
	}
	ao := res.Apps["web"]
	if ao == nil || ao.Running != 3 {
		t.Fatalf("app outcome = %+v, want 3 running", ao)
	}
	if ao.Hosts["delta"] != 0 {
		t.Fatalf("drained host still runs %d replicas: %+v", ao.Hosts["delta"], ao.Hosts)
	}
}

// TestNegativeReplicasConverged: with the reconcile loop stopped, a
// replica killed off the books stays dead — the replicas-converged
// invariant must call out the deficit at quiesce.
func TestNegativeReplicasConverged(t *testing.T) {
	sc := ctlBase()
	sc.Name = "neg-replicas"
	sc.Events = []scenario.Event{
		{Op: "sleep", Dur: 5 * sim.Second},
		{Op: "submit_app", App: "web"},
		{Op: "await_converged"},
		{Op: "controller_stop"},
		{Op: "app_kill", App: "web"},
		{Op: "sleep", Dur: 3 * sim.Second},
	}
	expectViolation(t, sc, "replicas-converged", -1)
}

// TestControllerOpValidation: controller ops without a controller, apps
// without a controller, and unknown app names are all rejected before
// the cluster boots.
func TestControllerOpValidation(t *testing.T) {
	sc := negBase()
	sc.Events = append(sc.Events, scenario.Event{Op: "drain_host", Host: "beta"})
	if _, err := scenario.Run(sc); err == nil {
		t.Fatal("drain_host without a controller accepted")
	}

	sc2 := ctlBase()
	sc2.Events = []scenario.Event{{Op: "submit_app", App: "nope"}}
	if _, err := scenario.Run(sc2); err == nil {
		t.Fatal("submit_app with unknown app accepted")
	}

	sc3 := ctlBase()
	sc3.HA = nil
	sc3.Events = []scenario.Event{{Op: "submit_app", App: "web"}}
	if _, err := scenario.Run(sc3); err == nil {
		t.Fatal("controller without ha accepted")
	}

	sc4 := negBase()
	sc4.Apps = []scenario.App{{Name: "web", Prog: "hog", Replicas: 1}}
	if _, err := scenario.Run(sc4); err == nil {
		t.Fatal("apps without a controller accepted")
	}

	sc5 := ctlBase()
	sc5.Apps[0].Replicas = 0
	sc5.Events = []scenario.Event{{Op: "submit_app", App: "web"}}
	if _, err := scenario.Run(sc5); err == nil {
		t.Fatal("zero-replica app spec accepted")
	}
}

// TestDecodeRejectsUnknownFields: a typo'd field in a scenario file must
// fail the decode, not silently drop a parameter of the schedule.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	good := []byte(`{"name":"x","seed":1,"hosts":["a"],"workloads":null,"events":[{"op":"sleep","dur":5}]}`)
	if _, err := scenario.Decode(good); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []byte(`{"name":"x","seed":1,"hosts":["a"],"events":[{"op":"sleep","duur":5}]}`)
	if _, err := scenario.Decode(bad); err == nil {
		t.Fatal("unknown event field accepted")
	}
	bad2 := []byte(`{"name":"x","hosts":["a"],"controler":{"host":"a"},"events":[]}`)
	if _, err := scenario.Decode(bad2); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

// TestUnknownOpFailsLoudly: schedule typos must be rejected before the
// cluster even boots, not silently skipped.
func TestUnknownOpFailsLoudly(t *testing.T) {
	sc := negBase()
	sc.Events = append(sc.Events, scenario.Event{Op: "mitgrate", Workload: "hog", To: "beta"})
	if _, err := scenario.Run(sc); err == nil {
		t.Fatal("unknown op accepted")
	}
	sc2 := negBase()
	sc2.Events = []scenario.Event{{Op: "protect", Workload: "hog", To: "beta"}}
	if _, err := scenario.Run(sc2); err == nil {
		t.Fatal("protect without ha accepted")
	}
}
