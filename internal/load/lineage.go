package load

import (
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// Lineage tracks one logical process across migrations and guardian
// restarts, exactly the way the scenario checker's census adopts lineage:
// a restarted incarnation carries Migrated plus the OldPID/OldHost of the
// identity it replaced. Cluster PIDs are staggered per host (globally
// unique), so OldPID alone identifies the predecessor; OldHost is checked
// when present.
//
// Locate is called from the generator's poll loop, so the scan over all
// machines is throttled: while the process is live the cached incarnation
// is returned for free, and during a restart gap a full rescan runs at
// most every rescanEvery of sim-time.
type Lineage struct {
	machines []*kernel.Machine
	pids     map[int]bool // every PID this lineage has worn
	hosts    map[int]string
	cur      *kernel.Proc
	procs    []*kernel.Proc // rescan scratch
	lastScan sim.Time
	scanned  bool
}

const rescanEvery = 2 * sim.Millisecond

// NewLineage starts tracking p (currently on host) across machines.
func NewLineage(machines []*kernel.Machine, p *kernel.Proc) *Lineage {
	l := &Lineage{
		machines: machines,
		pids:     map[int]bool{p.PID: true},
		hosts:    map[int]string{p.PID: p.M.Name},
	}
	l.cur = p
	return l
}

// Target adapts the lineage to the generator's TargetFn.
func (l *Lineage) Target() TargetFn { return l.Locate }

// Locate returns the live incarnation, or false while none exists (the
// restart gap of a migration, or a crash before recovery).
func (l *Lineage) Locate(now sim.Time) (*kernel.Proc, bool) {
	if l.cur != nil && l.cur.State == kernel.ProcRunning {
		return l.cur, true
	}
	l.cur = nil
	if l.scanned && sim.Duration(now-l.lastScan) < rescanEvery {
		return nil, false
	}
	l.lastScan, l.scanned = now, true
	for _, m := range l.machines {
		l.procs = m.AppendProcs(l.procs[:0])
		for _, p := range l.procs {
			if p.State != kernel.ProcRunning || !p.Migrated || !l.pids[p.OldPID] {
				continue
			}
			if h := l.hosts[p.OldPID]; h != "" && p.OldHost != "" && p.OldHost != h {
				continue
			}
			l.adopt(p)
			return p, true
		}
	}
	return nil, false
}

func (l *Lineage) adopt(p *kernel.Proc) {
	l.cur = p
	l.pids[p.PID] = true
	l.hosts[p.PID] = p.M.Name
}

// Current reports the cached incarnation (may be dead); for tests.
func (l *Lineage) Current() *kernel.Proc { return l.cur }
