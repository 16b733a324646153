package experiments

import (
	"fmt"

	"procmig/internal/cluster"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

// E3Result measures the socket-migration extension: how long a migrating
// datagram server is unreachable (the freeze window) and how many
// datagrams survive, with and without the extension.
type E3Result struct {
	Sent            int
	ReceivedWith    int          // datagrams counted, extension on
	ReceivedWithout int          // extension off: server errors after migration
	BrokenWithout   bool         // server failed outright without the extension
	Freeze          sim.Duration // SIGDUMP post → rest_proc completion
}

// E3SocketMigration runs the datagram-server migration scenario twice.
func E3SocketMigration() (*E3Result, error) {
	res := &E3Result{Sent: 20}
	for _, ext := range []bool{true, false} {
		c, err := cluster.New(cluster.Options{
			Hosts: []cluster.HostSpec{
				{Name: "brick", ISA: vm.ISA1},
				{Name: "schooner", ISA: vm.ISA1},
				{Name: "brador", ISA: vm.ISA1},
			},
			Config: kernel.Config{TrackNames: true, SocketMigration: ext},
		})
		if err != nil {
			return nil, err
		}
		if err := c.InstallVM("/bin/server", cluster.DatagramServerSrc); err != nil {
			return nil, err
		}
		if err := c.InstallHosted("sender", func(sys *kernel.Sys, args []string) int {
			fd, e := sys.Socket()
			if e != 0 {
				return 1
			}
			for i := 0; i < res.Sent; i++ {
				sys.SendTo(fd, "brick", 4000, []byte("x"))
				sys.Sleep(sim.Second)
			}
			sys.SendTo(fd, "brick", 4000, []byte("q"))
			return 0
		}); err != nil {
			return nil, err
		}

		var server, rp *kernel.Proc
		var count int
		var freeze sim.Duration
		c.Eng.Go("driver", func(tk *sim.Task) {
			server, _ = c.Spawn("brick", nil, user, "/bin/server")
			tk.Sleep(sim.Second)
			snd, _ := c.Spawn("brador", nil, user, "/bin/sender")
			tk.Sleep(5 * sim.Second)

			t0 := tk.Now()
			dp, _ := c.Spawn("brick", nil, user, "/bin/dumpproc", "-p", fmt.Sprint(server.PID))
			dp.AwaitExit(tk)
			rp, _ = c.Spawn("schooner", nil, user, "/bin/restart",
				"-p", fmt.Sprint(server.PID), "-h", "brick")
			for rp.State == kernel.ProcRunning && !rp.Migrated {
				tk.Wait(&rp.ExitQ)
			}
			freeze = sim.Duration(tk.Now() - t0)
			snd.AwaitExit(tk)
			count = rp.AwaitExit(tk)
		})
		if err := c.Run(); err != nil {
			return nil, err
		}
		if ext {
			res.ReceivedWith = count
			res.Freeze = freeze
		} else {
			if count == 99 {
				res.BrokenWithout = true
				res.ReceivedWithout = 0
			} else {
				res.ReceivedWithout = count
			}
		}
	}
	return res, nil
}
