// Package experiments regenerates every figure in the paper's evaluation
// (§6) plus the ablations listed in DESIGN.md. Each Fig* function builds a
// fresh deterministic cluster, runs the measurement scenario, and returns
// structured results; bench_test.go and cmd/migbench render them.
//
// Measurement definitions (the paper measured with kernel timing code and
// the usual process accounting; we do the equivalent):
//
//   - killing a process with a signal: real time from posting the signal
//     until the process is gone; CPU time consumed by the victim over that
//     span (the dump/core writing happens in the victim's context).
//   - dumpproc / restart: the command's own CPU and real time, as time(1)
//     would report. A successful restart "finishes" when rest_proc has
//     overlaid it (it never exits).
//   - execve / rest_proc: the kernel-side timing of §6.3.
package experiments

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

var user = cluster.DefaultUser

// boot builds a cluster with the test program installed.
func boot(cfg kernel.Config, names ...string) (*cluster.Cluster, error) {
	var hosts []cluster.HostSpec
	for _, n := range names {
		hosts = append(hosts, cluster.HostSpec{Name: n, ISA: vm.ISA1})
	}
	c, err := cluster.New(cluster.Options{Hosts: hosts, Config: cfg})
	if err != nil {
		return nil, err
	}
	if err := c.InstallVM("/bin/counter", cluster.TestProgramSrc); err != nil {
		return nil, err
	}
	return c, nil
}

// cpuOf is a process's total accumulated CPU.
func cpuOf(p *kernel.Proc) sim.Duration { return p.UTime + p.STime }

// --- Figure 1 ---------------------------------------------------------------

// Fig1Result reports the system-CPU overhead of the modified open/close
// and chdir system calls versus the unmodified kernel (per 100 iterations
// of the paper's loops).
type Fig1Result struct {
	OpenCloseBase    sim.Duration // 100 open/close pairs, baseline kernel
	OpenCloseTracked sim.Duration // same, name-tracking kernel
	ChdirBase        sim.Duration // 100 × three chdirs, baseline kernel
	ChdirTracked     sim.Duration
}

// OpenCloseOverhead is the tracked/baseline ratio (paper: ≈1.44).
func (r *Fig1Result) OpenCloseOverhead() float64 {
	return float64(r.OpenCloseTracked) / float64(r.OpenCloseBase)
}

// ChdirOverhead is the tracked/baseline ratio (paper: ≈1.36).
func (r *Fig1Result) ChdirOverhead() float64 {
	return float64(r.ChdirTracked) / float64(r.ChdirBase)
}

// Fig1 measures the modified-syscall overhead. The open/close loop opens
// and closes one file 100 times; the chdir loop does 100 sets of three
// chdir calls — an absolute path, "..", and a relative path — covering
// every case of combining the new cwd with the old one (§6.1).
func Fig1() (*Fig1Result, error) {
	res := &Fig1Result{}
	for _, tracked := range []bool{false, true} {
		c, err := boot(kernel.Config{TrackNames: tracked}, "brick")
		if err != nil {
			return nil, err
		}
		var openClose, chdir sim.Duration
		if err := c.InstallHosted("fig1", func(sys *kernel.Sys, args []string) int {
			// The target file and directories exist before measurement.
			if fd, e := sys.Creat("/usr/tmp/f1target", 0o644); e == 0 {
				sys.Close(fd)
			}
			sys.Mkdir("/usr/tmp/f1dir", 0o777)
			sys.Chdir("/usr/tmp")

			before := sys.Proc().STime
			for i := 0; i < 100; i++ {
				fd, e := sys.Open("/usr/tmp/f1target", kernel.O_RDONLY)
				if e != 0 {
					return 1
				}
				sys.Close(fd)
			}
			openClose = sys.Proc().STime - before

			before = sys.Proc().STime
			for i := 0; i < 100; i++ {
				if sys.Chdir("/usr/tmp/f1dir") != 0 { // absolute
					return 2
				}
				if sys.Chdir("..") != 0 { // parent
					return 3
				}
				if sys.Chdir("./f1dir") != 0 { // relative
					return 4
				}
				sys.Chdir("/usr/tmp")
			}
			chdir = sys.Proc().STime - before
			return 0
		}); err != nil {
			return nil, err
		}
		var status int
		c.Eng.Go("driver", func(tk *sim.Task) {
			p, _ := c.Spawn("brick", nil, user, "/bin/fig1")
			status = p.AwaitExit(tk)
		})
		if err := c.Run(); err != nil {
			return nil, err
		}
		if status != 0 {
			return nil, fmt.Errorf("fig1 program exited %d", status)
		}
		if tracked {
			res.OpenCloseTracked, res.ChdirTracked = openClose, chdir
		} else {
			res.OpenCloseBase, res.ChdirBase = openClose, chdir
		}
	}
	return res, nil
}

// --- Figure 2 ---------------------------------------------------------------

// Fig2Result reports the cost of killing the test program with SIGQUIT,
// with SIGDUMP, and with the dumpproc command.
type Fig2Result struct {
	QuitCPU, QuitReal         sim.Duration
	DumpCPU, DumpReal         sim.Duration
	DumpprocCPU, DumpprocReal sim.Duration
}

// Ratios normalized to SIGQUIT (paper: SIGDUMP ≈3× both; dumpproc ≈4×
// CPU, ≈6× real).
func (r *Fig2Result) DumpCPURatio() float64  { return ratio(r.DumpCPU, r.QuitCPU) }
func (r *Fig2Result) DumpRealRatio() float64 { return ratio(r.DumpReal, r.QuitReal) }
func (r *Fig2Result) DumpprocCPURatio() float64 {
	return ratio(r.DumpprocCPU, r.QuitCPU)
}
func (r *Fig2Result) DumpprocRealRatio() float64 {
	return ratio(r.DumpprocReal, r.QuitReal)
}

func ratio(a, b sim.Duration) float64 { return float64(a) / float64(b) }

// Fig2 measures dumping. The victim is always the paper's test program,
// killed after its first prompt for input (§6.2).
func Fig2() (*Fig2Result, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "brick")
	if err != nil {
		return nil, err
	}
	m := c.Machine("brick")
	res := &Fig2Result{}

	startVictim := func(tk *sim.Task) *kernel.Proc {
		v, _ := c.Spawn("brick", nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second) // first prompt reached, blocked in read
		return v
	}

	c.Eng.Go("driver", func(tk *sim.Task) {
		// SIGQUIT.
		v := startVictim(tk)
		t0, c0 := tk.Now(), cpuOf(v)
		m.Kill(user, v.PID, kernel.SIGQUIT)
		v.AwaitExit(tk)
		res.QuitReal = sim.Duration(tk.Now() - t0)
		res.QuitCPU = cpuOf(v) - c0

		// SIGDUMP.
		v = startVictim(tk)
		t0, c0 = tk.Now(), cpuOf(v)
		m.Kill(user, v.PID, kernel.SIGDUMP)
		v.AwaitExit(tk)
		res.DumpReal = sim.Duration(tk.Now() - t0)
		res.DumpCPU = cpuOf(v) - c0

		// dumpproc (its own CPU, like time(1) on the command).
		v = startVictim(tk)
		t0 = tk.Now()
		dp, _ := c.Spawn("brick", nil, user, "/bin/dumpproc", "-p", fmt.Sprint(v.PID))
		dp.AwaitExit(tk)
		res.DumpprocReal = sim.Duration(tk.Now() - t0)
		res.DumpprocCPU = cpuOf(dp)
	})
	if err := c.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// --- Figure 3 ---------------------------------------------------------------

// Fig3Result reports restarting: execve of the dumped a.out, rest_proc,
// and the restart command (split into restart-proper and rest_proc).
type Fig3Result struct {
	ExecveCPU, ExecveReal     sim.Duration
	RestProcCPU, RestProcReal sim.Duration
	RestartCPU, RestartReal   sim.Duration // whole command, rest_proc included
}

// Ratios normalized to execve (paper: rest_proc slightly above 1; restart
// ≈5× CPU, ≈6× real).
func (r *Fig3Result) RestProcCPURatio() float64  { return ratio(r.RestProcCPU, r.ExecveCPU) }
func (r *Fig3Result) RestProcRealRatio() float64 { return ratio(r.RestProcReal, r.ExecveReal) }
func (r *Fig3Result) RestartCPURatio() float64   { return ratio(r.RestartCPU, r.ExecveCPU) }
func (r *Fig3Result) RestartRealRatio() float64  { return ratio(r.RestartReal, r.ExecveReal) }

// Fig3 measures restarting. A dump of the test program is prepared first;
// then the a.out is executed as an ordinary program (execve timing), and
// the dump is restarted (restart + rest_proc timing, kernel-side per
// §6.3).
func Fig3() (*Fig3Result, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "brick")
	if err != nil {
		return nil, err
	}
	m := c.Machine("brick")
	res := &Fig3Result{}

	c.Eng.Go("driver", func(tk *sim.Task) {
		v, _ := c.Spawn("brick", nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		dp, _ := c.Spawn("brick", nil, user, "/bin/dumpproc", "-p", fmt.Sprint(v.PID))
		dp.AwaitExit(tk)
		aoutPath := fmt.Sprintf("/usr/tmp/a.out%05d", v.PID)

		// execve: run the dumped a.out as an ordinary program.
		fresh, _ := c.Spawn("brick", nil, user, aoutPath)
		tk.Sleep(2 * sim.Second) // it reaches its read; execve metrics final
		res.ExecveCPU = m.Metrics.LastExecve.CPU
		res.ExecveReal = m.Metrics.LastExecve.Real
		m.Kill(user, fresh.PID, kernel.SIGKILL)
		fresh.AwaitExit(tk)

		// restart: the command, timed until rest_proc has overlaid it.
		term2, _, terr := c.NewTerminal("brick", "ttymeas")
		if terr != nil {
			return
		}
		t0 := tk.Now()
		rp, _ := c.Spawn("brick", term2, user, "/bin/restart", "-p", fmt.Sprint(v.PID))
		for rp.State == kernel.ProcRunning && !rp.Migrated {
			tk.Wait(&rp.ExitQ)
		}
		res.RestartReal = sim.Duration(tk.Now() - t0)
		res.RestartCPU = cpuOf(rp)
		res.RestProcCPU = m.Metrics.LastRestProc.CPU
		res.RestProcReal = m.Metrics.LastRestProc.Real
		m.Kill(user, rp.PID, kernel.SIGKILL)
		rp.AwaitExit(tk)
	})
	if err := c.Run(); err != nil {
		return nil, err
	}
	if res.ExecveCPU == 0 {
		return nil, fmt.Errorf("fig3: execve not measured")
	}
	return res, nil
}

// --- Figure 4 ---------------------------------------------------------------

// Fig4Case is one bar of Figure 4: where the process comes from and goes
// to, relative to the machine migrate is typed on.
type Fig4Case struct {
	Name          string // "L→L", "L→R", "R→L", "R→R"
	From, To      string
	InvokedOn     string
	MigrateReal   sim.Duration // real time of the migrate command
	SeparateReal  sim.Duration // dumpproc + restart run on the right machines
	MigrateStatus int
	NetMsgs       int64 // network messages during the migrate run
	NetBytes      int64 // network payload bytes during the migrate run
}

// Ratio is migrate versus the separate commands (paper: up to ≈10×,
// about half a minute, for the all-remote case).
func (f *Fig4Case) Ratio() float64 { return ratio(f.MigrateReal, f.SeparateReal) }

// Fig4 measures the migrate command in the four locality cases against
// running dumpproc and restart separately on the appropriate machines.
// Machines: alpha (invoking terminal), beta and gamma (remotes).
func Fig4() ([]*Fig4Case, error) {
	cases := []*Fig4Case{
		{Name: "L→L", InvokedOn: "alpha", From: "alpha", To: "alpha"},
		{Name: "L→R", InvokedOn: "alpha", From: "alpha", To: "beta"},
		{Name: "R→L", InvokedOn: "alpha", From: "beta", To: "alpha"},
		{Name: "R→R", InvokedOn: "alpha", From: "beta", To: "gamma"},
	}
	for _, fc := range cases {
		// Baseline: dumpproc on the source, restart on the destination,
		// with no rsh anywhere.
		base, err := measureSeparate(fc.From, fc.To)
		if err != nil {
			return nil, err
		}
		fc.SeparateReal = base

		mig, status, traffic, err := measureMigrate("migrate", fc.InvokedOn, fc.From, fc.To)
		if err != nil {
			return nil, err
		}
		fc.MigrateReal = mig
		fc.MigrateStatus = status
		fc.NetMsgs, fc.NetBytes = traffic.Msgs, traffic.Bytes
	}
	return cases, nil
}

// netTraffic is a window over the network's global counters.
type netTraffic struct{ Msgs, Bytes int64 }

func trafficSince(n *netsim.Network, start netTraffic) netTraffic {
	return netTraffic{Msgs: n.Messages - start.Msgs, Bytes: n.Bytes - start.Bytes}
}

func measureSeparate(from, to string) (sim.Duration, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		return 0, err
	}
	var elapsed sim.Duration
	var fail error
	c.Eng.Go("driver", func(tk *sim.Task) {
		v, _ := c.Spawn(from, nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		t0 := tk.Now()
		dp, _ := c.Spawn(from, nil, user, "/bin/dumpproc", "-p", fmt.Sprint(v.PID))
		if st := dp.AwaitExit(tk); st != 0 {
			fail = fmt.Errorf("dumpproc exited %d", st)
			return
		}
		rp, _ := c.Spawn(to, nil, user, "/bin/restart", "-p", fmt.Sprint(v.PID), "-h", from)
		for rp.State == kernel.ProcRunning && !rp.Migrated {
			tk.Wait(&rp.ExitQ)
		}
		if rp.State != kernel.ProcRunning {
			fail = fmt.Errorf("restart exited %d", rp.ExitStatus)
			return
		}
		elapsed = sim.Duration(tk.Now() - t0)
		c.Machine(to).Kill(kernel.Creds{}, rp.PID, kernel.SIGKILL)
		rp.AwaitExit(tk)
	})
	if err := c.Run(); err != nil {
		return 0, err
	}
	if fail != nil {
		return 0, fail
	}
	return elapsed, nil
}

// MeasureOneMigration runs one complete remote→remote migration and
// returns its simulated duration and exit status (a convenience for the
// end-to-end wall-clock benchmark).
func MeasureOneMigration() (sim.Duration, int, error) {
	d, status, _, err := measureMigrate("migrate", "alpha", "beta", "gamma")
	return d, status, err
}

// measureMigrate times one run of the migration command prog (migrate,
// or A2's fmigrate) typed on host on, moving the test program from one
// host to another, and meters the network traffic of that run.
func measureMigrate(prog, on, from, to string) (sim.Duration, int, netTraffic, error) {
	c, err := boot(kernel.Config{TrackNames: true}, "alpha", "beta", "gamma")
	if err != nil {
		return 0, 0, netTraffic{}, err
	}
	var elapsed sim.Duration
	var status int
	var traffic netTraffic
	net := c.NetHost(on).Network()
	c.Eng.Go("driver", func(tk *sim.Task) {
		v, _ := c.Spawn(from, nil, user, "/bin/counter")
		tk.Sleep(2 * sim.Second)
		t0 := tk.Now()
		start := netTraffic{Msgs: net.Messages, Bytes: net.Bytes}
		mig, _ := c.Spawn(on, nil, user, "/bin/"+prog,
			"-p", fmt.Sprint(v.PID), "-f", from, "-t", to)
		status = mig.AwaitExit(tk)
		elapsed = sim.Duration(tk.Now() - t0)
		traffic = trafficSince(net, start)
		// Kill the migrated process so the engine can quiesce.
		c.KillAll()
	})
	if err := c.Run(); err != nil {
		return 0, 0, netTraffic{}, err
	}
	return elapsed, status, traffic, nil
}
