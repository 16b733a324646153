package main

import (
	"fmt"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// gossip_churn: membership at scale. A thousand synthetic hosts — a proc
// table and a load figure each, no kernel — run gossip heartbeats, a
// crash/recover wave and proc churn over datagrams. kernel, vm, core and
// the file systems do no work here, so a change to them must show no
// change on this workload.

const (
	gossipHosts     = 1000
	gossipProcs     = 10000
	gossipChurners  = 32
	gossipIntervals = 30 // beacon intervals (sim seconds) in the whole run
	gossipWave      = gossipHosts / 50
	gossipDwell     = 6 * sim.Second // crash dwell, then recovery dwell
	gossipSteady    = 5 * sim.Second // heartbeat traffic window
	gossipStep      = 50 * sim.Millisecond
	gossipMigPort   = 540
)

// gossipSource is a synthetic host: its run-queue length is its proc
// count, and beacons carry a bounded sample of its proc table.
type gossipSource struct {
	name  string
	procs []ha.ProcStat
}

func (s *gossipSource) HostName() string { return s.name }
func (s *gossipSource) RunQueueLen() int { return len(s.procs) }
func (s *gossipSource) AppendProcStats(_ sim.Time, dst []ha.ProcStat) []ha.ProcStat {
	return append(dst, s.procs[:min(len(s.procs), 8)]...)
}

// gossipOutcome is what the run left behind.
type gossipOutcome struct {
	ConvergedIn   int          // bootstrap intervals until every node saw every host
	Detect        sim.Duration // crash to the observer suspecting the whole wave
	Suspected     int          // wave hosts suspected at the end of the crash dwell
	Recovered     int          // wave hosts alive again at the end of the recovery dwell
	FalseSuspects int          // live hosts suspected at the end of the run
	Procs         int          // procs in all tables at the end
	Moves         int64        // churn transfers that committed
	MoveFailed    int64        // churn transfers that did not
	HBPerHostS    float64      // heartbeat messages per host per sim-second, steady window
}

// checkGossip: the wave is fully suspected and fully recovered, no live
// host is suspected at the end, churn moved procs, and none was lost or
// duplicated.
func checkGossip(o *gossipOutcome) []string {
	var bad []string
	if o.ConvergedIn < 0 {
		bad = append(bad, "bootstrap did not converge")
	}
	if o.Suspected != gossipWave || o.Detect <= 0 {
		bad = append(bad, fmt.Sprintf("%d/%d crashed hosts suspected", o.Suspected, gossipWave))
	}
	if o.Recovered != gossipWave {
		bad = append(bad, fmt.Sprintf("%d/%d crashed hosts recovered", o.Recovered, gossipWave))
	}
	if o.FalseSuspects != 0 {
		bad = append(bad, fmt.Sprintf("%d live hosts falsely suspected", o.FalseSuspects))
	}
	if o.Procs != gossipProcs {
		bad = append(bad, fmt.Sprintf("proc conservation broken: %d procs, want %d", o.Procs, gossipProcs))
	}
	if o.Moves == 0 {
		bad = append(bad, "churn moved no procs")
	}
	return bad
}

func runGossip(seed uint64, m *meter) error {
	eng := sim.NewEngine()
	eng.Seed(seed)
	net := netsim.New(eng, 200*sim.Microsecond, 0)
	reg := obs.NewRegistry()

	names := make([]string, gossipHosts)
	hosts := make([]*netsim.Host, gossipHosts)
	srcs := make([]*gossipSource, gossipHosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
		hosts[i] = net.AddHost(names[i])
		srcs[i] = &gossipSource{name: names[i]}
	}
	for p := 1; p <= gossipProcs; p++ {
		i := int(eng.Rand() % gossipHosts)
		srcs[i].procs = append(srcs[i].procs, ha.ProcStat{PID: p})
	}
	nodes := make([]*ha.Node, gossipHosts)
	for i := range nodes {
		node, err := ha.StartSource(eng, hosts[i], srcs[i], reg.Scope(names[i]), ha.Config{})
		if err != nil {
			return fmt.Errorf("start %s: %w", names[i], err)
		}
		peers := make([]string, 0, gossipHosts-1)
		peers = append(append(peers, names[:i]...), names[i+1:]...)
		node.SetPeers(peers)
		nodes[i] = node
		src := srcs[i]
		if err := hosts[i].Listen(gossipMigPort, func(_ *sim.Task, raw []byte) []byte {
			src.procs = append(src.procs, ha.ProcStat{PID: int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16})
			return []byte{1}
		}); err != nil {
			return err
		}
	}
	// The crash wave: seeded distinct hosts, never the observer h0000.
	wave := make([]int, 0, gossipWave)
	inWave := map[int]bool{}
	for len(wave) < gossipWave {
		i := 1 + int(eng.Rand()%(gossipHosts-1))
		if !inWave[i] {
			inWave[i] = true
			wave = append(wave, i)
		}
	}

	o := &gossipOutcome{ConvergedIn: -1}
	// Churners move one proc at a time from a random host to a lighter
	// one that the source's own view believes alive. A proc leaves its
	// source only when the transfer call succeeded.
	stop := false
	churn := func(tk *sim.Task) {
		tk.Sleep(2 * sim.Second)
		for !stop {
			tk.Sleep(sim.Duration(200+eng.Rand()%200) * sim.Millisecond)
			si := int(eng.Rand() % gossipHosts)
			src := srcs[si]
			if hosts[si].Down() || len(src.procs) == 0 {
				continue
			}
			now := tk.Now()
			best, bestLoad := -1, len(src.procs)
			for c := 0; c < 4; c++ {
				di := int(eng.Rand() % gossipHosts)
				if di == si {
					continue
				}
				mb, ok := nodes[si].Members().Get(names[di], now)
				if ok && mb.Alive && mb.Load < bestLoad {
					best, bestLoad = di, mb.Load
				}
			}
			if best < 0 {
				continue
			}
			p := src.procs[len(src.procs)-1]
			src.procs = src.procs[:len(src.procs)-1]
			buf := []byte{byte(p.PID), byte(p.PID >> 8), byte(p.PID >> 16), 0}
			if _, err := hosts[si].Call(tk, names[best], gossipMigPort, buf); err != nil {
				src.procs = append(src.procs, p)
				o.MoveFailed++
				continue
			}
			o.Moves++
		}
	}
	for c := 0; c < gossipChurners; c++ {
		eng.Go(fmt.Sprintf("churn%d", c), churn)
	}
	m.beginRun()

	probe := nodes[0].Members()
	at := func(d sim.Duration) error { return eng.RunUntil(sim.Time(d)) }

	end := m.span("phase.bootstrap_s")
	for iv := 1; iv <= gossipIntervals/2 && o.ConvergedIn < 0; iv++ {
		if err := at(sim.Duration(iv) * sim.Second); err != nil {
			return err
		}
		all := true
		for _, node := range nodes {
			if node.Members().Len() != gossipHosts {
				all = false
				break
			}
		}
		for _, nm := range names {
			if !all {
				break
			}
			all = probe.Alive(nm, eng.Now())
		}
		if all {
			o.ConvergedIn = iv
		}
	}
	end()
	if o.ConvergedIn < 0 {
		return fmt.Errorf("gossip did not converge within %d intervals", gossipIntervals/2)
	}

	end = m.span("phase.steady_s")
	hbIn := func() int64 {
		var n int64
		for _, h := range hosts {
			n += h.PortMsgsIn(ha.HBPort)
		}
		return n
	}
	base := sim.Duration(o.ConvergedIn) * sim.Second
	before := hbIn()
	if err := at(base + gossipSteady); err != nil {
		return err
	}
	o.HBPerHostS = float64(hbIn()-before) / gossipHosts / (float64(gossipSteady) / float64(sim.Second))
	end()

	end = m.span("phase.wave_s")
	crashAt := base + gossipSteady
	for _, i := range wave {
		hosts[i].SetDown(true)
	}
	for t := crashAt + gossipStep; t <= crashAt+gossipDwell; t += gossipStep {
		if err := at(t); err != nil {
			return err
		}
		if o.Detect > 0 {
			continue
		}
		all := true
		for _, i := range wave {
			if probe.Alive(names[i], eng.Now()) {
				all = false
				break
			}
		}
		if all {
			o.Detect = t - crashAt
		}
	}
	for _, i := range wave {
		if !probe.Alive(names[i], eng.Now()) {
			o.Suspected++
		}
	}
	for _, i := range wave {
		hosts[i].SetDown(false)
	}
	if err := at(crashAt + 2*gossipDwell); err != nil {
		return err
	}
	for _, i := range wave {
		if probe.Alive(names[i], eng.Now()) {
			o.Recovered++
		}
	}
	end()

	end = m.span("phase.churn_s")
	if err := at(gossipIntervals * sim.Second); err != nil {
		return err
	}
	stop = true
	if err := at(gossipIntervals*sim.Second + sim.Second); err != nil {
		return err
	}
	for i, nm := range names {
		if !hosts[i].Down() && !probe.Alive(nm, eng.Now()) {
			o.FalseSuspects++
		}
	}
	for _, s := range srcs {
		o.Procs += len(s.procs)
	}
	end()
	m.harvest(eng, net, names, reg)
	m.endRun()

	r := m.res
	r.setSim("detect_s", float64(o.Detect)/float64(sim.Second), gossipWave)
	r.setSim("hb_msgs_per_host_s", o.HBPerHostS, gossipHosts)
	r.Counts["ha.suspicions"] += float64(o.Suspected)
	r.Counts["ha.false_suspicions"] += float64(o.FalseSuspects)
	// Operations: one suspicion and one recovery per wave host, and one
	// liveness verdict per host at the end. Churn transfers are
	// background load, not operations: one aimed at a crashed host that
	// nobody suspects yet fails by design and leaves the proc in place.
	r.Attempted = 2*gossipWave + gossipHosts
	r.Failed = int64(2*gossipWave - o.Suspected - o.Recovered + o.FalseSuspects)
	r.Failures = append(r.Failures, checkGossip(o)...)
	return nil
}
