package main

import (
	"fmt"
	"time"

	"procmig/internal/apps"
	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/kernel"
	"procmig/internal/nfs"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// migrate_ring: the paper's own operation, repeated. One CPU-bound
// process is moved hop after hop around a ring of real-kernel hosts,
// alternating the paper's stop-and-copy (fmigrate: dump files on the
// source, restart over NFS) with streaming pre-copy (fmigrate -s -r 2).
// No HA and no controller run, so the data path — kernel dump/restart,
// stream, LZ, NFS, vfs, a.out — carries the host time.

const (
	ringHog    = "/bin/ringhog"
	ringHosts  = 4
	ringHops   = 200
	ringImgKiB = 1024 // whole data segment, LCG-filled at start
	ringHotKiB = 64   // rewritten every pass with never-repeating values
	ringDwell  = 500 * sim.Millisecond
)

// ringSrc is the migrated process. It fills its image with seeded LCG
// words (incompressible, distinct per seed), then rewrites one word in
// each hot page per pass with a counter that never repeats, so every
// pre-copy round has real dirty pages and the page store cannot reuse
// an earlier copy of a hot page.
func ringSrc(seed uint64) string {
	return fmt.Sprintf(`
        movi r3, %d
pass:   movi r2, img
hot:    str  r2, r3
        sys  getpid
        addi r3, 1
        addi r2, 1024
        cmpi r2, hotend
        jlt  hot
        jmp  pass
        .data
img:    .space %d
hotend: .space %d
imgend: .word 0
`, seed%1000000007+1, ringHotKiB<<10, (ringImgKiB-ringHotKiB)<<10)
}

// ringHop is what one hop left behind.
type ringHop struct {
	Mode     string
	From, To string
	Status   int          // fmigrate exit status
	Total    sim.Duration // fmigrate real time
	Freeze   sim.Duration // source kernel's dump window
	Copies   int          // live copies cluster-wide after the hop
	OnDest   bool         // the one copy is on the destination
	Progress sim.Duration // CPU the moved copy gained over the dwell
	Host     time.Duration
}

type ringOutcome struct {
	Hops      []ringHop
	WireBytes int64 // migration-port payload bytes
}

func (o *ringOutcome) committed() int {
	n := 0
	for _, h := range o.Hops {
		if h.Status == 0 {
			n++
		}
	}
	return n
}

// checkRing: every hop commits, leaves exactly one live copy, on the
// destination, and that copy keeps running.
func checkRing(o *ringOutcome) []string {
	var bad []string
	if len(o.Hops) != ringHops {
		bad = append(bad, fmt.Sprintf("ring ran %d of %d hops", len(o.Hops), ringHops))
	}
	for i, h := range o.Hops {
		if h.Status != 0 {
			bad = append(bad, fmt.Sprintf("hop %d (%s %s->%s): fmigrate exited %d", i, h.Mode, h.From, h.To, h.Status))
		}
		if h.Copies != 1 || !h.OnDest {
			bad = append(bad, fmt.Sprintf("hop %d: %d live copies, on destination %v", i, h.Copies, h.OnDest))
		}
		if h.Progress <= 0 {
			bad = append(bad, fmt.Sprintf("hop %d: migrated process made no progress", i))
		}
	}
	return bad
}

// migrationPorts carry migration traffic only: migd verbs, pre-copy and
// restart streams, page-store summaries, and the NFS reads of a
// stop-and-copy restart.
var migrationPorts = []int{apps.MigdPort, apps.MigdPrecopyPort, apps.MigdStreamPort, core.StoreSummaryPort, nfs.Port}

func migrationBytes(c *cluster.Cluster) int64 {
	var n int64
	for _, hn := range c.Names() {
		for _, port := range migrationPorts {
			n += c.NetHost(hn).ClientBytes(port)
		}
	}
	return n
}

func runRing(seed uint64, m *meter) error {
	specs := make([]cluster.HostSpec, ringHosts)
	for i := range specs {
		specs[i] = cluster.HostSpec{Name: fmt.Sprintf("r%d", i), ISA: vm.ISA1}
	}
	c, err := cluster.New(cluster.Options{Hosts: specs, Config: kernel.Config{TrackNames: true}})
	if err != nil {
		return err
	}
	c.Eng.Seed(seed)
	if err := c.InstallVM(ringHog, ringSrc(seed)); err != nil {
		return err
	}
	names := c.Names()
	m.beginRun()

	o := &ringOutcome{}
	var fail error
	live := func() []*kernel.Proc {
		var out []*kernel.Proc
		for _, hn := range names {
			for _, p := range m.procs(c.Machine(hn)) {
				if p.State == kernel.ProcRunning && (p.Cmd == ringHog || p.Migrated) {
					out = append(out, p)
				}
			}
		}
		return out
	}
	c.Eng.Go("ring", func(tk *sim.Task) {
		p, err := c.Spawn(names[0], nil, cluster.DefaultUser, ringHog)
		if err != nil {
			fail = err
			return
		}
		for p.VM == nil && p.State == kernel.ProcRunning {
			tk.Sleep(100 * sim.Millisecond)
		}
		tk.Sleep(ringDwell)
		at := 0
		for i := 0; i < ringHops; i++ {
			h := ringHop{Mode: "stop", From: names[at], To: names[(at+1)%ringHosts]}
			args := []string{"-p", fmt.Sprint(p.PID), "-f", h.From, "-t", h.To}
			if i%2 == 1 {
				h.Mode = "precopy"
				args = append(args, "-s", "-r", "2")
			}
			h0 := time.Now()
			t0 := tk.Now()
			mig, err := c.Spawn(h.To, nil, cluster.DefaultUser, "/bin/fmigrate", args...)
			if err != nil {
				fail = err
				return
			}
			h.Status = mig.AwaitExit(tk)
			h.Total = sim.Duration(tk.Now() - t0)
			h.Host = time.Since(h0)
			h.Freeze = c.Machine(h.From).Metrics.LastDump.Real
			copies := live()
			h.Copies = len(copies)
			if h.Copies == 1 && copies[0].M == c.Machine(h.To) {
				h.OnDest = true
				p = copies[0]
				cpu0 := p.UTime + p.STime
				tk.Sleep(ringDwell)
				if p.State == kernel.ProcRunning {
					h.Progress = p.UTime + p.STime - cpu0
				}
			}
			o.Hops = append(o.Hops, h)
			if !h.OnDest || h.Status != 0 {
				break // the ring has no single process left to move
			}
			at = (at + 1) % ringHosts
		}
		for _, hn := range names {
			for _, q := range m.procs(c.Machine(hn)) {
				c.Machine(hn).Kill(kernel.Creds{}, q.PID, kernel.SIGKILL)
			}
		}
	})
	if err := c.Run(); err != nil {
		return err
	}
	if fail != nil {
		return fail
	}
	o.WireBytes = migrationBytes(c)
	m.harvest(c.Eng, c.Net, names, c.Obs)
	m.endRun()

	r := m.res
	var stopF, stopT, preF, preT []float64
	var stopH, preH []float64
	ms := func(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }
	for _, h := range o.Hops {
		if h.Mode == "stop" {
			stopF, stopT = append(stopF, ms(h.Freeze)), append(stopT, ms(h.Total))
			stopH = append(stopH, float64(h.Host)/1e6)
		} else {
			preF, preT = append(preF, ms(h.Freeze)), append(preT, ms(h.Total))
			preH = append(preH, float64(h.Host)/1e6)
		}
	}
	r.setSim("stop_freeze_ms", median(stopF), len(stopF))
	r.setSim("precopy_freeze_ms", median(preF), len(preF))
	r.setSim("stop_migrate_ms", median(stopT), len(stopT))
	r.setSim("precopy_migrate_ms", median(preT), len(preT))
	if n := o.committed(); n > 0 {
		r.setSim("wire_kib_per_mig", float64(o.WireBytes)/1024/float64(n), n)
	}
	r.Host["phase.stop_hop_ms"] = median(stopH)
	r.Host["phase.precopy_hop_ms"] = median(preH)
	r.Attempted = ringHops
	r.Failed = int64(ringHops - o.committed())
	r.Failures = append(r.Failures, checkRing(o)...)
	return nil
}
