package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"procmig/internal/errno"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// checkIndex compares the pid-ordered index against an oracle, a
// pid-sorted walk of the procs map, and reports the first difference
// ("" when they agree).
func checkIndex(m *Machine) string {
	pids := make([]int, 0, len(m.procs))
	for pid := range m.procs {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	got := m.Procs()
	if len(got) != len(pids) {
		return fmt.Sprintf("index holds %d procs, table %d", len(got), len(pids))
	}
	for i, p := range got {
		if p.PID != pids[i] || m.procs[p.PID] != p {
			return fmt.Sprintf("index[%d] is pid %d, table says %d", i, p.PID, pids[i])
		}
		if i > 0 && got[i-1].PID >= p.PID {
			return fmt.Sprintf("index not strictly increasing at %d", i)
		}
	}
	return ""
}

// checkOrphanZombies reports a zombie nobody can reap any more: one
// whose parent is gone or has itself exited ("" when there is none).
func checkOrphanZombies(m *Machine) string {
	for _, q := range m.Procs() {
		if q.State != ProcZombie {
			continue
		}
		if parent, ok := m.procs[q.PPID]; !ok || parent.State != ProcRunning {
			return fmt.Sprintf("pid %d is a zombie with no running parent (ppid %d)", q.PID, q.PPID)
		}
	}
	return ""
}

// puppetOp is one command the property test's driver mails to a puppet.
type puppetOp struct {
	kind int // opSpawn...opRestProc
	arg  int // exit status or WaitRestarted pid
}

const (
	opSpawn = iota
	opExit
	opWait
	opWaitRestarted
	opRestProc
)

// TestProcIndexMatchesTable drives a seeded mix of spawn, exit, wait,
// WaitRestarted, SIGKILL and rest_proc overlay on a machine whose pids
// start at 80,001, and after every step checks the index against the
// procs map.
func TestProcIndexMatchesTable(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		w := newWorld(t, Config{TrackNames: true})
		m := w.m
		m.SetNextPID(80_001)
		var reaped, overlays, kills int
		// A stand-in for core's rest_proc: overlay the caller in place
		// with a fresh image, keeping its pid, as a restart does.
		m.Hooks.RestProc = func(p *Proc, aoutPath, _ string) errno.Errno {
			if e := p.execve(aoutPath, []string{aoutPath}, nil); e != 0 {
				return e
			}
			p.NotifyMigrated(p.PID, "elsewhere")
			overlays++
			return 0
		}
		mail := map[int][]puppetOp{}
		// A puppet polls its mailbox and obeys; it never acts on its own.
		w.installHosted(t, "/bin/puppet", "puppet", func(sys *Sys, args []string) int {
			pid := sys.Getpid()
			for {
				q := mail[pid]
				if len(q) == 0 {
					sys.Sleep(10 * sim.Millisecond)
					continue
				}
				op := q[0]
				mail[pid] = q[1:]
				switch op.kind {
				case opSpawn:
					sys.Spawn("/bin/puppet", []string{"/bin/puppet"}, nil)
				case opExit:
					return op.arg
				case opWait:
					if _, _, e := sys.Wait(); e == 0 {
						reaped++
					}
				case opWaitRestarted:
					if _, e := sys.WaitRestarted(op.arg); e == 0 {
						reaped++
					}
				case opRestProc:
					// Returns only on failure: success runs a fresh puppet.
					if e := sys.RestProc("/bin/puppet", "/usr/tmp/stack"); e != 0 {
						t.Errorf("rest_proc: %v", e)
					}
				}
			}
		})
		rng := rand.New(rand.NewSource(seed))
		var bad string
		w.eng.Go("driver", func(tk *sim.Task) {
			defer func() {
				for _, p := range m.Procs() {
					m.Kill(Creds{}, p.PID, SIGKILL)
				}
			}()
			for step := 0; step < 400; step++ {
				var running []*Proc
				for _, p := range m.Procs() {
					if p.State == ProcRunning {
						running = append(running, p)
					}
				}
				k := rng.Intn(7)
				if len(running) == 0 {
					k = 0
				} else if len(running) > 24 && k <= 1 {
					k = 2 // keep the table from growing without bound
				}
				var p *Proc
				if len(running) > 0 {
					p = running[rng.Intn(len(running))]
				}
				switch k {
				case 0:
					if _, err := m.Spawn(SpawnSpec{Path: "/bin/puppet", Args: []string{"/bin/puppet"},
						Creds: user, CWD: "/home"}); err != nil {
						bad = err.Error()
						return
					}
				case 1:
					mail[p.PID] = append(mail[p.PID], puppetOp{kind: opSpawn})
				case 2:
					mail[p.PID] = append(mail[p.PID], puppetOp{kind: opExit, arg: step % 7})
				case 3:
					mail[p.PID] = append(mail[p.PID], puppetOp{kind: opWait})
				case 4:
					child := 0
					for _, q := range m.Procs() {
						if q.PPID == p.PID {
							child = q.PID
						}
					}
					mail[p.PID] = append(mail[p.PID], puppetOp{kind: opWaitRestarted, arg: child})
				case 5:
					m.Kill(Creds{}, p.PID, SIGKILL)
					kills++
				case 6:
					mail[p.PID] = append(mail[p.PID], puppetOp{kind: opRestProc})
				}
				tk.Sleep(100 * sim.Millisecond)
				if bad = checkIndex(m); bad == "" {
					bad = checkOrphanZombies(m)
				}
				if bad != "" {
					bad = fmt.Sprintf("step %d: %s", step, bad)
					return
				}
			}
		})
		w.run(t)
		if bad != "" {
			t.Fatalf("seed %d: %s", seed, bad)
		}
		if bad = checkIndex(m); bad != "" {
			t.Fatalf("seed %d after teardown: %s", seed, bad)
		}
		if reaped == 0 || overlays == 0 || kills == 0 {
			t.Fatalf("seed %d: mix never exercised every path (reaped %d, rest_proc %d, kills %d)",
				seed, reaped, overlays, kills)
		}
		for _, p := range m.Procs() {
			if p.PID < 80_001 {
				t.Fatalf("seed %d: pid %d below the seeded base", seed, p.PID)
			}
		}
	}
}

// TestWaitReapsLowestPidFirst: with several zombie children, wait(2)
// reaps them in pid order, every time.
func TestWaitReapsLowestPidFirst(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		w := newWorld(t, Config{TrackNames: true})
		w.installHosted(t, "/bin/kid", "kid", func(sys *Sys, args []string) int { return 0 })
		var spawned, reaped []int
		zombies := 0
		w.installHosted(t, "/bin/parent", "parent", func(sys *Sys, args []string) int {
			for i := 0; i < 3; i++ {
				pid, e := sys.Spawn("/bin/kid", []string{"/bin/kid"}, nil)
				if e != 0 {
					return 1
				}
				spawned = append(spawned, pid)
			}
			sys.Sleep(sim.Second)
			for _, pid := range spawned {
				if q, ok := sys.Machine().FindProc(pid); ok && q.State == ProcZombie {
					zombies++
				}
			}
			for range spawned {
				pid, _, e := sys.Wait()
				if e != 0 {
					return 2
				}
				reaped = append(reaped, pid)
			}
			return 0
		})
		p := w.spawn(t, "/bin/parent")
		w.run(t)
		if p.ExitStatus != 0 || zombies != 3 {
			t.Fatalf("rep %d: parent status %d, %d zombies before wait", rep, p.ExitStatus, zombies)
		}
		if !slices.Equal(reaped, spawned) || !slices.IsSorted(reaped) {
			t.Fatalf("rep %d: reaped %v, want ascending %v", rep, reaped, spawned)
		}
	}
}

// TestParentExitReapsZombieChildren: children that exit before their
// parent, which never waits, are reaped when the parent exits — the
// process table holds no zombie afterwards.
func TestParentExitReapsZombieChildren(t *testing.T) {
	w := newWorld(t, Config{TrackNames: true})
	w.installHosted(t, "/bin/kid", "kid", func(sys *Sys, args []string) int { return 0 })
	var kids []int
	zombies := 0
	w.installHosted(t, "/bin/parent", "parent", func(sys *Sys, args []string) int {
		for i := 0; i < 3; i++ {
			pid, e := sys.Spawn("/bin/kid", []string{"/bin/kid"}, nil)
			if e != 0 {
				return 1
			}
			kids = append(kids, pid)
		}
		sys.Sleep(sim.Second)
		for _, pid := range kids {
			if q, ok := sys.Machine().FindProc(pid); ok && q.State == ProcZombie {
				zombies++
			}
		}
		return 0
	})
	p := w.spawn(t, "/bin/parent")
	w.run(t)
	if p.ExitStatus != 0 || zombies != len(kids) || len(kids) != 3 {
		t.Fatalf("parent status %d, %d of %d children zombies before the parent exited",
			p.ExitStatus, zombies, len(kids))
	}
	for _, q := range w.m.Procs() {
		if q.State == ProcZombie {
			t.Fatalf("pid %d (ppid %d) left a zombie after its parent exited", q.PID, q.PPID)
		}
	}
	for _, pid := range kids {
		if _, ok := w.m.FindProc(pid); ok {
			t.Fatalf("child pid %d still in the table", pid)
		}
	}
	if bad := checkIndex(w.m); bad != "" {
		t.Fatal(bad)
	}
}

// procTable is a machine whose table holds n processes from pid base up,
// none of them started: the census cost depends only on the table.
func procTable(base, n int) *Machine {
	m := NewMachine(sim.NewEngine(), "brick", vm.ISA1, Config{})
	m.SetNextPID(base)
	for i := 0; i < n; i++ {
		m.newProc(user, "/", nil)
	}
	return m
}

var procSink []*Proc

func BenchmarkAppendProcs(b *testing.B) {
	m := procTable(79_001, 16)
	dst := m.AppendProcs(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.AppendProcs(dst[:0])
	}
	procSink = dst
}

// TestAppendProcsAllocFree gates BenchmarkAppendProcs: a census into a
// warm slice allocates nothing, however high the machine's pids run.
func TestAppendProcsAllocFree(t *testing.T) {
	m := procTable(79_001, 16)
	dst := m.AppendProcs(nil)
	if len(dst) != 16 || dst[0].PID != 79_001 {
		t.Fatalf("census = %d procs from pid %d", len(dst), dst[0].PID)
	}
	if n := testing.AllocsPerRun(100, func() { dst = m.AppendProcs(dst[:0]) }); n != 0 {
		t.Fatalf("AppendProcs allocates %.1f times per call", n)
	}
	if r := testing.Benchmark(BenchmarkAppendProcs); r.AllocsPerOp() != 0 {
		t.Fatalf("BenchmarkAppendProcs: %d allocs/op", r.AllocsPerOp())
	}
}
