package core_test

import (
	"fmt"
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/core"
	"procmig/internal/inet"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

func bootSockets(t *testing.T, socketMigration bool) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		Hosts: []cluster.HostSpec{
			{Name: "brick", ISA: vm.ISA1},
			{Name: "schooner", ISA: vm.ISA1},
			{Name: "brador", ISA: vm.ISA1},
		},
		Config: kernel.Config{TrackNames: true, SocketMigration: socketMigration},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/server", cluster.DatagramServerSrc); err != nil {
		t.Fatal(err)
	}
	return c
}

// sender transmits n datagrams to host:4000, one per second, ignoring
// transient failures (the server is dead mid-migration), then a final
// "quit" datagram.
func installSender(t *testing.T, c *cluster.Cluster, target string, n int) {
	t.Helper()
	if err := c.InstallHosted("sender", func(sys *kernel.Sys, args []string) int {
		fd, e := sys.Socket()
		if e != 0 {
			return 1
		}
		for i := 0; i < n; i++ {
			sys.SendTo(fd, target, 4000, []byte("x")) // best effort
			sys.Sleep(sim.Second)
		}
		sys.SendTo(fd, target, 4000, []byte("q"))
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSocketMigrationWithForwarding: the §9 extension end to end. The
// sender keeps addressing the ORIGINAL machine; after migration the old
// machine forwards, so the server keeps counting.
func TestSocketMigrationWithForwarding(t *testing.T) {
	c := bootSockets(t, true)
	installSender(t, c, "brick", 20)

	var server, rp *kernel.Proc
	var count int
	c.Eng.Go("driver", func(tk *sim.Task) {
		server, _ = c.Spawn("brick", nil, user, "/bin/server")
		tk.Sleep(sim.Second)
		snd, _ := c.Spawn("brador", nil, user, "/bin/sender")
		tk.Sleep(5 * sim.Second) // ~5 datagrams land on brick

		dp := spawnOK(t, c, "brick", nil, "/bin/dumpproc", "-p", fmt.Sprint(server.PID))
		if st := dp.AwaitExit(tk); st != 0 {
			t.Error("dumpproc failed")
			return
		}
		rp = spawnOK(t, c, "schooner", nil, "/bin/restart",
			"-p", fmt.Sprint(server.PID), "-h", "brick")
		snd.AwaitExit(tk)
		count = rp.AwaitExit(tk)
	})
	run(t, c)

	if rp.KilledBy != 0 {
		t.Fatalf("server killed by %v", rp.KilledBy)
	}
	if count == 99 {
		t.Fatal("server hit a socket error after migration")
	}
	// 20 datagrams sent; a few are lost while the process is frozen
	// (dump ≈1.2s + dumpproc wait + restart ≈2.5s in total).
	if count < 12 || count > 20 {
		t.Fatalf("server counted %d datagrams, want most of 20", count)
	}
	// The old machine holds the forwarding address.
	stack := c.Machine("brick").NetStackRef().(*inet.Stack)
	if stack.Forwards()[4000] != "schooner" {
		t.Fatalf("forwards on brick = %v", stack.Forwards())
	}
}

// TestSocketMigrationOffMatchesPaper: with the extension off, the
// migrated server's socket is /dev/null and its next socket call fails —
// "the best we can do in our current implementation" (§7).
func TestSocketMigrationOffMatchesPaper(t *testing.T) {
	c := bootSockets(t, false)
	installSender(t, c, "brick", 8)

	var server, rp *kernel.Proc
	var status int
	c.Eng.Go("driver", func(tk *sim.Task) {
		server, _ = c.Spawn("brick", nil, user, "/bin/server")
		tk.Sleep(sim.Second)
		snd, _ := c.Spawn("brador", nil, user, "/bin/sender")
		tk.Sleep(3 * sim.Second)

		dp := spawnOK(t, c, "brick", nil, "/bin/dumpproc", "-p", fmt.Sprint(server.PID))
		dp.AwaitExit(tk)
		rp = spawnOK(t, c, "schooner", nil, "/bin/restart",
			"-p", fmt.Sprint(server.PID), "-h", "brick")
		status = rp.AwaitExit(tk)
		snd.AwaitExit(tk)
	})
	run(t, c)
	if status != 99 {
		t.Fatalf("server exit = %d, want 99 (socket gone, recvfrom fails)", status)
	}
}

// TestBoundSocketDumpRecordsPort: white-box check of the extension's dump
// entry.
func TestBoundSocketDumpRecordsPort(t *testing.T) {
	c := bootSockets(t, true)
	var server *kernel.Proc
	c.Eng.Go("driver", func(tk *sim.Task) {
		server, _ = c.Spawn("brick", nil, user, "/bin/server")
		tk.Sleep(sim.Second)
		dp := spawnOK(t, c, "brick", nil, "/bin/dumpproc", "-p", fmt.Sprint(server.PID))
		dp.AwaitExit(tk)
	})
	run(t, c)
	// fd 3 is the bound socket.
	raw, err := c.Machine("brick").NS().ReadFile(fmt.Sprintf("/usr/tmp/files%05d", server.PID))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := core.DecodeFiles(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ff.FDs[3].Kind != 3 || ff.FDs[3].Port != 4000 {
		t.Fatalf("fd 3 entry = %+v, want bound-socket with port 4000", ff.FDs[3])
	}
}
