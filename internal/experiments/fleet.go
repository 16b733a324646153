package experiments

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/controller"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// fleet is the harness the controller experiments (A13, A14, A15) share:
// Sun-2s named h000, h001, … with the HA control plane on every host and
// the declarative controller on h000, stepped one reconcile period at a
// time while a census audits the kernels — not the controller's books —
// for the replicas of one binary.
type fleet struct {
	c      *cluster.Cluster
	ctl    *controller.Controller
	path   string       // the replica binary the census counts
	want   int          // desired replicas across every app
	period sim.Duration // one step: the controller's reconcile period
	procs  []*kernel.Proc
}

// unaudited tells stepUntil not to audit the replica count after a step.
const unaudited = -1

// newFleet boots hosts machines with name tracking and seeds the engine.
// The caller applies any cluster-wide mode switch, then calls start.
func newFleet(hosts int, seed uint64) (*fleet, error) {
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("h%03d", i), ISA: vm.ISA1}
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return nil, err
	}
	c.Eng.Seed(seed)
	return &fleet{c: c}, nil
}

// start installs the replica program at path on every host, starts HA
// and the controller on h000, and runs the 10 s warm-up, so that gossip
// membership has converged before the experiment submits anything and
// its timings measure the controller, not bootstrap.
func (f *fleet) start(path, src string, want int, hcfg ha.Config, ccfg controller.Config) error {
	f.path, f.want, f.period = path, want, ccfg.Period
	if err := f.c.InstallVM(path, src); err != nil {
		return err
	}
	if err := f.c.StartHA(hcfg); err != nil {
		return err
	}
	ctl, err := f.c.StartController("h000", ccfg)
	if err != nil {
		return err
	}
	f.ctl = ctl
	return f.runFor(10 * sim.Second)
}

// runFor advances the cluster by d of virtual time.
func (f *fleet) runFor(d sim.Duration) error { return f.c.RunUntil(f.c.Eng.Now() + sim.Time(d)) }

// census counts the running replicas on every host that is up: the
// installed binary, or a migrated successor (a restored process's Cmd is
// its dump image, so the path alone cannot identify post-move copies;
// nothing else migrates in these runs).
func (f *fleet) census() (int, map[string]int) {
	total, per := 0, map[string]int{}
	for _, hn := range f.c.Names() {
		if f.c.NetHost(hn).Down() {
			continue
		}
		f.procs = f.c.Machine(hn).AppendProcs(f.procs[:0])
		for _, p := range f.procs {
			if p.State == kernel.ProcRunning && (p.Cmd == f.path || p.Migrated) {
				total++
				per[hn]++
			}
		}
	}
	return total, per
}

// rolloutPacked submits app, which bin-packs every desired replica of the
// fleet's binary onto one host other than h000, and steps until the fleet
// converges. It returns the packed host and how long the rollout took.
func (f *fleet) rolloutPacked(app string, protect bool, budget sim.Duration, allowOver int) (string, sim.Duration, error) {
	if err := f.ctl.Submit(controller.AppSpec{
		Name: app, Path: f.path, Replicas: f.want,
		Policy: "binpack", MaxPerHost: f.want, Protect: protect,
		Avoid: []string{"h000"},
	}); err != nil {
		return "", 0, err
	}
	d, err := f.stepUntil("rollout", budget, allowOver, f.converged)
	if err != nil {
		return "", 0, err
	}
	host := f.packedHost()
	if host == "" {
		_, per := f.census()
		return "", 0, fmt.Errorf("rollout did not pack all %d replicas on one host: %v", f.want, per)
	}
	return host, d, nil
}

// packedHost is the host running every desired replica, or "".
func (f *fleet) packedHost() string {
	_, per := f.census()
	for hn, n := range per {
		if n == f.want {
			return hn
		}
	}
	return ""
}

// converged: the controller reports desired state and the kernels agree.
func (f *fleet) converged() bool {
	total, _ := f.census()
	return f.ctl.Converged() && total == f.want
}

// drain starts a rolling drain of host and steps until it is done, the
// fleet has converged again and host runs no replica. It fails unless
// the drain moved exactly moved replicas with no failed move, and
// returns the drain's final status.
func (f *fleet) drain(host string, moved int, budget sim.Duration, allowOver int) (controller.DrainStatus, error) {
	if err := f.c.DrainHost(host); err != nil {
		return controller.DrainStatus{}, err
	}
	drained := func() bool {
		st, ok := f.ctl.DrainStatus(host)
		if !ok || !st.Done {
			return false
		}
		total, per := f.census()
		return f.ctl.Converged() && total == f.want && per[host] == 0
	}
	if _, err := f.stepUntil("drain", budget, allowOver, drained); err != nil {
		return controller.DrainStatus{}, err
	}
	st, _ := f.ctl.DrainStatus(host)
	if st.Failed != 0 || st.Moved != moved {
		return st, fmt.Errorf("drain of %s moved %d/%d replicas, %d failed", host, st.Moved, moved, st.Failed)
	}
	return st, nil
}

// ctr reads one of the controller's counters on h000.
func (f *fleet) ctr(name string) int64 { return f.c.Obs.Scope("h000").Counter(name).Value() }

// stepUntil advances one reconcile period at a time until ok() holds and
// reports how long that took, failing once budget has passed. Unless
// allowOver is unaudited, it audits the replica count after every step:
// more than want + allowOver running copies is the exactly-one-copy
// guarantee broken (allowOver admits the transient double a mid-flight
// migration transaction legitimately holds).
func (f *fleet) stepUntil(phase string, budget sim.Duration, allowOver int, ok func() bool) (sim.Duration, error) {
	from := f.c.Eng.Now()
	for {
		if ok() {
			return sim.Duration(f.c.Eng.Now() - from), nil
		}
		if sim.Duration(f.c.Eng.Now()-from) >= budget {
			total, _ := f.census()
			return 0, fmt.Errorf("%s did not converge within %v (running %d, want %d, status %+v)",
				phase, budget, total, f.want, f.ctl.Status())
		}
		if err := f.runFor(f.period); err != nil {
			return 0, err
		}
		if allowOver == unaudited {
			continue
		}
		if total, _ := f.census(); total > f.want+allowOver {
			return 0, fmt.Errorf("%s: %d running replicas, want at most %d — duplicate copies",
				phase, total, f.want+allowOver)
		}
	}
}

// totals reports the engine's dispatch count and the virtual seconds run.
func (f *fleet) totals() (int64, float64) {
	return f.c.Eng.Stats().Dispatched, float64(f.c.Eng.Now()) / float64(sim.Second)
}

// Close ends every daemon still parked in the engine: a fleet run stops
// at a RunUntil limit with HA and the controller alive, and without Close
// their tasks would be kept for good.
func (f *fleet) Close() { f.c.Eng.Close() }
