package main

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/load"
	"procmig/internal/obs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// drain_under_load: the operator's case. Tens of real-kernel hosts run HA
// gossip and the controller; the controller bin-packs identical replicas
// onto one host, one open-loop client per replica. After a baseline
// window the controller drains that host through the default pre-copy
// and page-store path, then the clients settle and run out their backlog.
//
// The client rate is a healthy load point: the baseline window must meet
// the SLO, so the client latency measures the migration, not overload
// that was there before the drain started.

const (
	drainSvc      = "/bin/drainsvc"
	drainHosts    = 80
	drainReplicas = 6
	drainDataKiB  = 256
	drainWave     = 2

	drainInterval = 100 * sim.Millisecond // open-loop mean inter-arrival per client
	drainService  = 2 * sim.Millisecond   // CPU per request on the replica's host
	drainTimeout  = 30 * sim.Second
	drainSLOP99   = 50 * sim.Millisecond
	drainPeriod   = 2 * sim.Second // controller reconcile period

	// Every phase ends at a fixed span of sim time, so each seed simulates
	// the same 230 s and the host work stays comparable across seeds.
	// Rollout and drain must converge within their span.
	drainWindow  = 20 * sim.Second // warm-up, baseline and settle
	drainRollout = 80 * sim.Second
	drainSpan    = 80 * sim.Second // DrainHost to done, then settling
	drainBacklog = 10 * sim.Second // clients stopped, backlog served
)

// drainSrc is the replica: fill a working set with seeded LCG words —
// identical across replicas, so later moves hit the page store — then
// touch one page a second with a content-stable read-modify-write.
func drainSrc(seed uint64) string {
	return fmt.Sprintf(`
        movi r5, %d
        movi r6, 1103515245
        movi r2, ws
init:   mul  r5, r6
        addi r5, 12345
        str  r2, r5
        addi r2, 4
        cmpi r2, wsend
        jlt  init
loop:   ld   r4, beat
        addi r4, 1
        st   r4, beat
        mov  r3, r4
        movi r7, %d
        mod  r3, r7
        movi r7, 1024
        mul  r3, r7
        movi r2, ws
        add  r2, r3
        ldr  r7, r2
        str  r2, r7
        movi r0, 1
        sys  sleep
        jmp  loop
        .data
beat:   .word 0
ws:     .space %d
wsend:  .word 0
`, seed%1000000007+1, drainDataKiB, drainDataKiB<<10)
}

// drainOutcome is what the drain left behind.
type drainOutcome struct {
	Moved, MoveFailed int
	Done              bool
	Running           int // replicas running cluster-wide after the drain
	Distinct          int // distinct live processes the clients' lineages end at
	OnPacked          int // replicas still on the drained host

	Submitted, Completed, Dropped int64 // client requests
	Undrained                     int   // clients with requests still queued at the end
	HashMismatches                int64 // pages that failed re-verification

	BaselineP99   sim.Duration // merged client p99 over the baseline window
	FalseSuspects int          // live hosts the controller's view suspects at the end
}

// checkDrain: every replica runs exactly once after the drain and none on
// the drained host, every request is accounted for, no page failed
// re-verification, the load point was healthy before the drain, and
// the controller's view suspects no live host.
func checkDrain(o *drainOutcome) []string {
	var bad []string
	if !o.Done || o.Moved != drainReplicas || o.MoveFailed != 0 {
		bad = append(bad, fmt.Sprintf("drain done=%v moved %d/%d, %d failed", o.Done, o.Moved, drainReplicas, o.MoveFailed))
	}
	if o.Running != drainReplicas || o.Distinct != drainReplicas || o.OnPacked != 0 {
		bad = append(bad, fmt.Sprintf("after the drain %d replicas run (%d distinct, %d on the drained host), want %d once each",
			o.Running, o.Distinct, o.OnPacked, drainReplicas))
	}
	if o.Submitted != o.Completed+o.Dropped || o.Completed == 0 || o.Undrained != 0 {
		bad = append(bad, fmt.Sprintf("requests: %d submitted, %d completed, %d dropped, %d clients still queued",
			o.Submitted, o.Completed, o.Dropped, o.Undrained))
	}
	if o.HashMismatches != 0 {
		bad = append(bad, fmt.Sprintf("%d pages failed hash re-verification", o.HashMismatches))
	}
	if o.BaselineP99 <= 0 || o.BaselineP99 > drainSLOP99 {
		bad = append(bad, fmt.Sprintf("unhealthy load point: baseline p99 %v against the %v SLO", o.BaselineP99, drainSLOP99))
	}
	if o.FalseSuspects != 0 {
		bad = append(bad, fmt.Sprintf("%d live hosts suspected", o.FalseSuspects))
	}
	return bad
}

func runDrain(seed uint64, m *meter) error {
	specs := make([]cluster.HostSpec, drainHosts)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("h%03d", i), ISA: vm.ISA1}
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return err
	}
	c.Eng.Seed(seed)
	if err := c.InstallVM(drainSvc, drainSrc(seed)); err != nil {
		return err
	}
	// Guardians stay out of the way: no Protect, and a checkpoint period
	// longer than the run, so HA carries membership only.
	if err := c.StartHA(ha.Config{Interval: sim.Second, CkptInterval: 600 * sim.Second}); err != nil {
		return err
	}
	execStorm := sim.Duration(drainReplicas*drainDataKiB)*5*sim.Millisecond + drainReplicas*100*sim.Millisecond
	ctl, err := c.StartController("h000", controller.Config{
		Period: drainPeriod, MaxActionsPerRound: drainReplicas + 8, DrainWave: drainWave,
		SpawnGrace: execStorm + 10*sim.Second,
	})
	if err != nil {
		return err
	}
	names := c.Names()
	m.beginRun()

	census := func() (int, map[string]int) {
		total, per := 0, map[string]int{}
		for _, hn := range names {
			if c.NetHost(hn).Down() {
				continue
			}
			for _, p := range m.procs(c.Machine(hn)) {
				if p.State == kernel.ProcRunning && (p.Cmd == drainSvc || p.Migrated) {
					total++
					per[hn]++
				}
			}
		}
		return total, per
	}
	runFor := func(d sim.Duration) error { return c.RunUntil(c.Eng.Now() + sim.Time(d)) }
	// phase steps the engine one controller period at a time until ok
	// holds, then runs on to the end of the phase's span.
	phase := func(name string, span sim.Duration, ok func() bool) error {
		deadline := c.Eng.Now() + sim.Time(span)
		for !ok() {
			if c.Eng.Now() >= deadline {
				total, per := census()
				return fmt.Errorf("%s did not converge within %v: %d replicas running %v", name, span, total, per)
			}
			if err := c.RunUntil(min(c.Eng.Now()+sim.Time(drainPeriod), deadline)); err != nil {
				return err
			}
		}
		return c.RunUntil(deadline)
	}

	end := m.span("phase.warmup_s")
	if err := runFor(drainWindow); err != nil {
		return err
	}
	end()

	end = m.span("phase.rollout_s")
	if err := ctl.Submit(controller.AppSpec{
		Name: "svc", Path: drainSvc, Replicas: drainReplicas,
		Policy: "binpack", MaxPerHost: drainReplicas, Avoid: []string{"h000"},
	}); err != nil {
		return err
	}
	// The census runs only once the controller claims convergence, so the
	// benchmark's own scans do not grow with how long convergence takes.
	if err := phase("rollout", drainRollout, func() bool {
		if !ctl.Converged() {
			return false
		}
		total, _ := census()
		return total == drainReplicas
	}); err != nil {
		return err
	}
	packed := ""
	_, per := census()
	for _, hn := range names {
		if per[hn] == drainReplicas {
			packed = hn
		}
	}
	if packed == "" {
		return fmt.Errorf("rollout did not pack %d replicas on one host: %v", drainReplicas, per)
	}
	machines := make([]*kernel.Machine, len(names))
	for i, hn := range names {
		machines[i] = c.Machine(hn)
	}
	app, ok := ctl.App("svc")
	if !ok || len(app.Replicas) != drainReplicas {
		return fmt.Errorf("app status lost the replicas: %+v", app)
	}
	gens := make([]*load.Generator, 0, drainReplicas)
	lins := make([]*load.Lineage, 0, drainReplicas)
	for i, r := range app.Replicas {
		target, ok := c.Machine(r.Host).FindProc(r.PID)
		if !ok {
			return fmt.Errorf("replica %d (pid %d) not found on %s", i, r.PID, r.Host)
		}
		name := fmt.Sprintf("client%02d", i)
		lin := load.NewLineage(machines, target)
		lins = append(lins, lin)
		gens = append(gens, load.Start(c.Eng, c.Obs.Scope(name), load.Config{
			Name: name, Interval: drainInterval, Service: drainService,
			Timeout: drainTimeout, Window: sim.Second,
			SLO: load.SLO{P99: drainSLOP99},
		}, lin.Target()))
	}
	end()

	o := &drainOutcome{}
	end = m.span("phase.baseline_s")
	if err := runFor(drainWindow); err != nil {
		return err
	}
	baseline := &obs.HDR{}
	for _, g := range gens {
		baseline.Merge(g.Latency())
	}
	o.BaselineP99 = sim.Duration(baseline.P99())
	end()

	end = m.span("phase.drain_s")
	bytes0 := migrationBytes(c)
	if err := c.DrainHost(packed); err != nil {
		return err
	}
	var wire int64
	if err := phase("drain", drainSpan, func() bool {
		st, ok := ctl.DrainStatus(packed)
		if !ok || !st.Done || !ctl.Converged() {
			return false
		}
		total, per := census()
		if total != drainReplicas || per[packed] != 0 {
			return false
		}
		wire = migrationBytes(c) - bytes0
		return true
	}); err != nil {
		return err
	}
	st, _ := ctl.DrainStatus(packed)
	o.Moved, o.MoveFailed, o.Done = st.Moved, st.Failed, st.Done
	end()

	end = m.span("phase.settle_s")
	if err := runFor(drainWindow); err != nil {
		return err
	}
	for _, g := range gens {
		g.Stop()
	}
	if err := runFor(drainBacklog); err != nil {
		return err
	}
	for _, g := range gens {
		if !g.Drained() {
			o.Undrained++
		}
	}
	o.Running, per = census()
	o.OnPacked = per[packed]
	servers := map[*kernel.Proc]bool{}
	for _, lin := range lins {
		if p := lin.Current(); p != nil && p.State == kernel.ProcRunning {
			servers[p] = true
		}
	}
	o.Distinct = len(servers)
	view := c.HA("h000").Members()
	for _, hn := range names {
		if !view.Alive(hn, c.Eng.Now()) {
			o.FalseSuspects++
		}
	}
	end()

	end = m.span("phase.harvest_s")
	merged := &obs.HDR{}
	var breaches []load.Breach
	for _, g := range gens {
		merged.Merge(g.Latency())
		s := g.Stats()
		o.Submitted += s.Submitted
		o.Completed += s.Completed
		o.Dropped += s.Dropped
		breaches = append(breaches, g.Breaches()...)
	}
	endAttr := m.span("load.attribute")
	blame := load.Attribute(breaches, c.Obs.Tracer.Spans())
	endAttr()
	m.harvest(c.Eng, c.Net, names, c.Obs)
	o.HashMismatches = int64(m.res.Counts["stream.hash_mismatches"])
	end()
	m.endRun()

	r := m.res
	ms := func(v int64) float64 { return float64(v) / float64(sim.Millisecond) }
	r.setSim("client_p50_ms", ms(merged.P50()), int(merged.Count()))
	r.setSim("client_p99_ms", ms(merged.P99()), int(merged.Count()))
	r.setSim("drain_makespan_s", float64(st.Makespan)/float64(sim.Second), 1)
	if o.Moved > 0 {
		r.setSim("wire_kib_per_mig", float64(wire)/1024/float64(o.Moved), o.Moved)
	}
	r.Counts["load.baseline_p99_ms"] = float64(o.BaselineP99) / float64(sim.Millisecond)
	r.Counts["ha.false_suspicions"] += float64(o.FalseSuspects)
	var blamed int64
	for _, b := range blame {
		blamed += b.Count
	}
	if blamed != int64(len(breaches)) {
		r.Failures = append(r.Failures, fmt.Sprintf("blame covers %d of %d breaches", blamed, len(breaches)))
	}
	r.Attempted = o.Submitted + drainReplicas + int64(len(names))
	r.Failed = o.Dropped + int64(o.MoveFailed+drainReplicas-o.Moved) + int64(o.FalseSuspects)
	r.Failures = append(r.Failures, checkDrain(o)...)
	return nil
}
