package scenario

import (
	"fmt"
	"sort"

	"procmig/internal/kernel"
	"procmig/internal/load"
	"procmig/internal/sim"
)

// hp keys one process cluster-wide: PIDs are per-machine counters, so a
// bare pid is ambiguous across hosts.
func hp(host string, pid int) string { return fmt.Sprintf("%s:%d", host, pid) }

// liveCopy is one running process belonging to a workload's lineage.
type liveCopy struct {
	host string
	pid  int
}

// census walks every machine's process table, adopts migrated and
// restored successors into each workload's pid lineage (a proc with
// Migrated set whose OldHost:OldPID is already in the lineage is a new
// hop of the same workload), and returns the running copies per
// workload. Pure reads — the census consumes no virtual time, so running
// it after every event cannot perturb the schedule.
func (r *runner) census() map[string][]liveCopy {
	out := map[string][]liveCopy{}
	for _, name := range r.wlOrder {
		rf := r.refs[name]
		// Adopt to a fixpoint: a single event can add at most one hop per
		// workload, but a cheap loop is simpler than proving it.
		for adopted := true; adopted; {
			adopted = false
			for _, hn := range r.c.Names() {
				for _, p := range r.procsOn(hn) {
					if p.Migrated && rf.pids[hp(p.OldHost, p.OldPID)] && !rf.pids[hp(hn, p.PID)] {
						rf.pids[hp(hn, p.PID)] = true
						adopted = true
					}
				}
			}
		}
		var copies []liveCopy
		for _, hn := range r.c.Names() {
			for _, p := range r.procsOn(hn) {
				if p.State == kernel.ProcRunning && rf.pids[hp(hn, p.PID)] {
					copies = append(copies, liveCopy{host: hn, pid: p.PID})
				}
			}
		}
		out[name] = copies
		// Keep the bookkeeping pointed at the live copy so @home: and the
		// next migrate resolve correctly after a committed transaction.
		if rf.state == refLive && len(copies) == 1 {
			rf.home, rf.curPID = copies[0].host, copies[0].pid
		}
	}
	return out
}

// replicaCensus is the controller-app analogue of census: walk every
// machine's process table and classify processes into app lineages —
// fresh spawns by their program path, migrated and restored successors
// by their OldHost:OldPID chain (migd spools the files file, so OldHost
// survives the hop; an empty OldHost falls back to a pid-only match
// within the app's own lineage). Pure reads, like census.
func (r *runner) replicaCensus() map[string][]liveCopy {
	out := map[string][]liveCopy{}
	for _, name := range r.appOrder {
		ar := r.apps[name]
		path := appBinPath(name)
		for adopted := true; adopted; {
			adopted = false
			for _, hn := range r.c.Names() {
				for _, p := range r.procsOn(hn) {
					k := hp(hn, p.PID)
					if ar.pids[k] {
						continue
					}
					if p.Cmd == path ||
						(p.Migrated && (ar.pids[hp(p.OldHost, p.OldPID)] ||
							(p.OldHost == "" && lineageHasPID(ar, p.OldPID)))) {
						ar.pids[k] = true
						adopted = true
					}
				}
			}
		}
		var copies []liveCopy
		for _, hn := range r.c.Names() {
			for _, p := range r.procsOn(hn) {
				if p.State == kernel.ProcRunning && ar.pids[hp(hn, p.PID)] {
					copies = append(copies, liveCopy{host: hn, pid: p.PID})
				}
			}
		}
		out[name] = copies
	}
	return out
}

func lineageHasPID(ar *appRef, pid int) bool {
	suffix := fmt.Sprintf(":%d", pid)
	for k := range ar.pids {
		if len(k) > len(suffix) && k[len(k)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}

// checkReplicas is the replicas-converged invariant, a quiesce-only
// check (mid-run deviations are exactly what the reconcile loop exists
// to heal): every submitted app must have precisely its desired number
// of replica processes actually running — audited against the kernels,
// not the controller's books — and none of them may sit on a host that
// is cordoned for a drain.
func (r *runner) checkReplicas(now sim.Time) {
	cs := r.replicaCensus()
	ctl := r.c.Controller()
	for _, name := range r.appOrder {
		ar := r.apps[name]
		if !ar.submitted {
			continue
		}
		copies := cs[name]
		if len(copies) != ar.ap.Replicas {
			r.violate("replicas-converged", -1, now,
				"app %s has %d running replicas at quiesce, want %d: %v",
				name, len(copies), ar.ap.Replicas, copyList(copies))
		}
		for _, cp := range copies {
			if ctl != nil && ctl.Cordoned(cp.host) {
				r.violate("replicas-converged", -1, now,
					"app %s still has a replica (pid %d) on drained host %s",
					name, cp.pid, cp.host)
			}
		}
		wo := &AppOutcome{Desired: ar.ap.Replicas, Running: len(copies)}
		if len(copies) > 0 {
			wo.Hosts = map[string]int{}
			for _, cp := range copies {
				wo.Hosts[cp.host]++
			}
		}
		if r.res.Apps == nil {
			r.res.Apps = map[string]*AppOutcome{}
		}
		r.res.Apps[name] = wo
	}
}

func (r *runner) violate(invariant string, eventIndex int, at sim.Time, format string, args ...any) {
	r.res.Violations = append(r.res.Violations, Violation{
		Invariant:  invariant,
		EventIndex: eventIndex,
		At:         at,
		Detail:     fmt.Sprintf(format, args...),
	})
}

// checkAfterEvent runs the per-event invariants: exactly-one-live-copy
// (split into its two failure directions), no split-brain guardian
// restarts, and counter monotonicity. Membership convergence is a
// quiesce-only check — mid-partition the views are supposed to disagree.
func (r *runner) checkAfterEvent(tk *sim.Task, eventIndex int) {
	now := tk.Now()
	cs := r.census()
	inv := r.sc.Invariants

	// Grow the app lineages while the hops are still observable: a
	// migrated replica can only be chained to its predecessor while the
	// predecessor's entry is (or was) in the lineage — the source proc
	// itself is reaped moments after the transaction commits.
	if r.sc.Controller != nil {
		r.replicaCensus()
	}

	for _, name := range r.wlOrder {
		rf := r.refs[name]
		copies := cs[name]
		// live-copy: never more than one running copy of a workload — a
		// second one is the transparency guarantee broken. An in-flight
		// migration transaction may legitimately hold a half-restored
		// destination copy alongside the source.
		max := 1
		if rf.inFlight > 0 {
			max = 1 + rf.inFlight
		}
		if !inv.SkipLiveCopy && len(copies) > max {
			r.violate("live-copy", eventIndex, now,
				"workload %s has %d running copies: %v", name, len(copies), copyList(copies))
		}
		// conservation: a live workload never vanishes without a recorded
		// crash or recovery taking it. Pending-recovery and dead workloads
		// are excused — their zero copies are the recorded state.
		if !inv.SkipConservation && rf.state == refLive && rf.inFlight == 0 && len(copies) < 1 {
			r.violate("conservation", eventIndex, now,
				"workload %s has no running copy (last seen pid %d on %s)", name, rf.curPID, rf.home)
		}
	}

	if !inv.SkipSplitBrain && r.sc.HA != nil {
		r.checkSplitBrain(eventIndex, now)
	}
	if !inv.SkipCounters {
		r.checkCounters(eventIndex, now)
	}
}

// checkSplitBrain scans every guardian's recovery ledger: a successful
// recovery of a process that is still running on its source host, or two
// guardians both restarting the same (source, pid), is a split brain —
// the arbitration probe failed to reach a live source and the cluster
// now runs two copies.
func (r *runner) checkSplitBrain(eventIndex int, now sim.Time) {
	recovered := map[string]int{}
	for _, hn := range r.c.Names() {
		node := r.c.HA(hn)
		if node == nil || node.Guard == nil || r.c.NetHost(hn).Down() {
			continue
		}
		for _, rec := range node.Guard.Recoveries {
			if rec.Status != 0 {
				continue
			}
			key := hp(rec.Source, rec.PID)
			recovered[key]++
			if recovered[key] > 1 {
				r.violate("split-brain", eventIndex, now,
					"process %s restarted by more than one guardian", key)
			}
			if p, ok := r.c.Machine(rec.Source).FindProc(rec.PID); ok && p.State == kernel.ProcRunning {
				r.violate("split-brain", eventIndex, now,
					"guardian on %s restarted %s (as pid %d) while the original still runs",
					hn, key, rec.NewPID)
			}
		}
	}
}

// checkCounters asserts no obs counter ever regressed since the previous
// check — counters are monotone by contract; a regression means some
// subsystem's accounting went backwards.
func (r *runner) checkCounters(eventIndex int, now sim.Time) {
	for _, row := range r.c.Obs.CounterRows() {
		key := row.Host + "\x00" + row.Name
		if prev, ok := r.prevCtr[key]; ok && row.Value < prev {
			r.violate("counter-monotonic", eventIndex, now,
				"counter %s/%s regressed %d -> %d", row.Host, row.Name, prev, row.Value)
		}
		r.prevCtr[key] = row.Value
	}
}

// checkQuiesce runs after the settle sleep: the per-event checks once
// more (without the in-flight allowance — nothing may be mid-transfer at
// quiesce), membership convergence across every surviving node's view,
// and the final per-workload outcome accounting.
func (r *runner) checkQuiesce(tk *sim.Task) {
	now := tk.Now()
	cs := r.census()
	inv := r.sc.Invariants

	for _, name := range r.wlOrder {
		rf := r.refs[name]
		copies := cs[name]
		if !inv.SkipLiveCopy && len(copies) > 1 {
			r.violate("live-copy", -1, now,
				"workload %s has %d running copies at quiesce: %v", name, len(copies), copyList(copies))
		}
		if !inv.SkipConservation && rf.state == refLive && len(copies) < 1 {
			r.violate("conservation", -1, now,
				"workload %s has no running copy at quiesce (last seen pid %d on %s)",
				name, rf.curPID, rf.home)
		}
		wo := &WorkloadOutcome{LiveCopies: len(copies), ExpectedLive: rf.state == refLive}
		if len(copies) >= 1 {
			wo.Host = copies[0].host
			if p, ok := r.c.Machine(copies[0].host).FindProc(copies[0].pid); ok {
				wo.Migrated = p.Migrated
			}
		}
		r.res.Workloads[name] = wo
	}

	if !inv.SkipSplitBrain && r.sc.HA != nil {
		r.checkSplitBrain(-1, now)
	}
	if !inv.SkipMembership && r.sc.HA != nil {
		r.checkMembership(now)
	}
	if !inv.SkipCounters {
		r.checkCounters(-1, now)
	}
	if !inv.SkipReplicas && r.sc.Controller != nil {
		r.checkReplicas(now)
	}
	if len(r.sc.Load) > 0 {
		r.checkSLO(now)
	}
}

// checkSLO fills Result.Load (stats + per-phase blame table for every
// generator) and enforces each spec's slo block: observed p99 ≤ slo_p99
// and drops ≤ slo_dropped. A spec with slo_p99 == 0 is measured but not
// judged. Runs after the generators have drained, so the counts are final.
func (r *runner) checkSLO(now sim.Time) {
	if r.res.Load == nil {
		r.res.Load = map[string]*LoadOutcome{}
	}
	spans := r.c.Obs.Tracer.Spans()
	for _, ls := range r.sc.Load {
		g := r.gens[ls.Name]
		st := g.Stats()
		blame := load.Attribute(g.Breaches(), spans)
		r.res.Load[ls.Name] = &LoadOutcome{Stats: st, Blame: blame}
		if r.sc.Invariants.SkipSLO || ls.SLOP99 <= 0 {
			continue
		}
		topPhase := "none"
		if len(blame) > 0 {
			topPhase = blame[0].Phase
		}
		if st.P99 > ls.SLOP99 {
			r.violate("slo", -1, now,
				"load %s: p99 %v breaches slo_p99 %v (%d/%d requests over, top blame: %s)",
				ls.Name, st.P99, ls.SLOP99, st.Breaches, st.Completed, topPhase)
		}
		if st.Dropped > ls.SLODropped {
			r.violate("slo", -1, now,
				"load %s: %d dropped requests breach budget %d (top blame: %s)",
				ls.Name, st.Dropped, ls.SLODropped, topPhase)
		}
	}
}

// checkMembership asserts the surviving nodes converged: every up host
// sees every other up host alive and every down host not alive. Only
// meaningful after the settle sleep — mid-run the views lag by design.
func (r *runner) checkMembership(now sim.Time) {
	var up, down []string
	for _, hn := range r.c.Names() {
		if r.c.NetHost(hn).Down() {
			down = append(down, hn)
		} else {
			up = append(up, hn)
		}
	}
	sort.Strings(up)
	sort.Strings(down)
	for _, hn := range up {
		node := r.c.HA(hn)
		if node == nil {
			continue
		}
		for _, peer := range up {
			if peer == hn {
				continue
			}
			if !node.Members().Alive(peer, now) {
				r.violate("membership", -1, now,
					"%s does not see live peer %s as alive at quiesce", hn, peer)
			}
		}
		for _, peer := range down {
			if node.Members().Alive(peer, now) {
				r.violate("membership", -1, now,
					"%s still sees crashed host %s as alive at quiesce", hn, peer)
			}
		}
	}
}

func copyList(copies []liveCopy) []string {
	out := make([]string, len(copies))
	for i, c := range copies {
		out[i] = hp(c.host, c.pid)
	}
	return out
}
