package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"procmig/internal/sim"
)

// Each workload's check must pass a good outcome and trip on every kind
// of broken one.

func goodRing() *ringOutcome {
	o := &ringOutcome{}
	for i := 0; i < ringHops; i++ {
		o.Hops = append(o.Hops, ringHop{Copies: 1, OnDest: true, Progress: sim.Millisecond})
	}
	return o
}

func goodDrain() *drainOutcome {
	return &drainOutcome{
		Moved: drainReplicas, Done: true, Running: drainReplicas, Distinct: drainReplicas,
		Submitted: 100, Completed: 99, Dropped: 1, BaselineP99: 7 * sim.Millisecond,
	}
}

func goodGossip() *gossipOutcome {
	return &gossipOutcome{
		ConvergedIn: 7, Detect: 3 * sim.Second, Suspected: gossipWave, Recovered: gossipWave,
		Procs: gossipProcs, Moves: 100,
	}
}

func TestChecksTripOnBrokenOutcomes(t *testing.T) {
	if bad := checkRing(goodRing()); len(bad) != 0 {
		t.Fatalf("good ring outcome failed: %v", bad)
	}
	if bad := checkDrain(goodDrain()); len(bad) != 0 {
		t.Fatalf("good drain outcome failed: %v", bad)
	}
	if bad := checkGossip(goodGossip()); len(bad) != 0 {
		t.Fatalf("good gossip outcome failed: %v", bad)
	}

	ring := map[string]func(*ringOutcome){
		"two live copies":    func(o *ringOutcome) { o.Hops[3].Copies = 2 },
		"copy lost":          func(o *ringOutcome) { o.Hops[5].Copies = 0; o.Hops[5].OnDest = false },
		"copy on wrong host": func(o *ringOutcome) { o.Hops[7].OnDest = false },
		"uncommitted hop":    func(o *ringOutcome) { o.Hops[0].Status = 1 },
		"process stalled":    func(o *ringOutcome) { o.Hops[9].Progress = 0 },
		"ring stopped early": func(o *ringOutcome) { o.Hops = o.Hops[:10] },
	}
	for name, breakIt := range ring {
		o := goodRing()
		breakIt(o)
		if len(checkRing(o)) == 0 {
			t.Errorf("migrate_ring check missed: %s", name)
		}
	}

	drain := map[string]func(*drainOutcome){
		"replica twice":        func(o *drainOutcome) { o.Running++ },
		"replica lost":         func(o *drainOutcome) { o.Running--; o.Distinct-- },
		"two clients one proc": func(o *drainOutcome) { o.Distinct-- },
		"left on drained host": func(o *drainOutcome) { o.OnPacked = 1 },
		"move failed":          func(o *drainOutcome) { o.MoveFailed = 1; o.Moved-- },
		"drain not done":       func(o *drainOutcome) { o.Done = false },
		"request leaked":       func(o *drainOutcome) { o.Submitted++ },
		"backlog not served":   func(o *drainOutcome) { o.Undrained = 1 },
		"hash mismatch":        func(o *drainOutcome) { o.HashMismatches = 1 },
		"overloaded baseline":  func(o *drainOutcome) { o.BaselineP99 = drainSLOP99 + sim.Millisecond },
		"live host suspected":  func(o *drainOutcome) { o.FalseSuspects = 1 },
	}
	for name, breakIt := range drain {
		o := goodDrain()
		breakIt(o)
		if len(checkDrain(o)) == 0 {
			t.Errorf("drain_under_load check missed: %s", name)
		}
	}

	gossip := map[string]func(*gossipOutcome){
		"crash missed":       func(o *gossipOutcome) { o.Suspected-- },
		"never detected":     func(o *gossipOutcome) { o.Detect = 0 },
		"host not recovered": func(o *gossipOutcome) { o.Recovered-- },
		"false suspect":      func(o *gossipOutcome) { o.FalseSuspects = 1 },
		"proc lost":          func(o *gossipOutcome) { o.Procs-- },
		"proc duplicated":    func(o *gossipOutcome) { o.Procs++ },
		"no churn":           func(o *gossipOutcome) { o.Moves = 0 },
		"no bootstrap":       func(o *gossipOutcome) { o.ConvergedIn = -1 },
	}
	for name, breakIt := range gossip {
		o := goodGossip()
		breakIt(o)
		if len(checkGossip(o)) == 0 {
			t.Errorf("gossip_churn check missed: %s", name)
		}
	}
}

// A real migrate_ring iteration passes its check and replays exactly on
// the same seed; one changed count trips the replay check.
func TestRingIterationReplaysAndChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload iteration")
	}
	run := func() *Result {
		m := newMeter(false)
		if err := runRing(7, m); err != nil {
			t.Fatal(err)
		}
		return m.res
	}
	a, b := run(), run()
	if len(a.Failures) != 0 || a.Failed != 0 {
		t.Fatalf("ring iteration failed: %v", a.Failures)
	}
	if d := replayDiff(detOf(a), detOf(b)); d != "" {
		t.Fatalf("same seed did not replay: %s", d)
	}
	b.Counts["sim.events"]++
	if replayDiff(detOf(a), detOf(b)) == "" {
		t.Fatal("replay check missed a changed count")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess1_fast64", "procmig/internal/kernel.(*Machine).Procs", "procmig/internal/ha.(*Node).beaconLoop"}, "kernel"},
		{[]string{"runtime.chansend1", "procmig/internal/sim.(*Task).park", "procmig/internal/kernel.(*Sys).Sleep"}, "sim"},
		{[]string{"procmig/internal/inet.(*Stack).Send", "procmig/internal/kernel.(*Sys).Sendto"}, "kernel"},
		{[]string{"procmig/internal/vm/asm.Assemble", "procmig/internal/cluster.(*Cluster).InstallVM"}, "vm"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{[]string{"main.(*meter).procs"}, "runtime.other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads the
// benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, benchmark runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, benchmark runs %v", names, want)
		}
	}
	if len(b.EndToEnd) != len(resultEndToEnd) {
		t.Fatalf("%d end_to_end metrics declared, %d printed", len(b.EndToEnd), len(resultEndToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != resultEndToEnd[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("end_to_end %d: %s %s, printed %s %s", i, m.Name, m.Unit, resultEndToEnd[i], unitOf(resultEndToEnd[i]))
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics declared, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s %s, printed %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
