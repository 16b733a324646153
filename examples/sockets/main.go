// Sockets: the paper's §9 future work, implemented as an optional
// extension. A datagram server migrates while a client keeps sending to
// the server's ORIGINAL machine; the old machine forwards (the
// DEMOS/MP-style forwarding address), so the stream survives with only
// the freeze-window losses. Run with the extension off to see the paper's
// base behaviour: the socket becomes /dev/null and the server breaks.
//
//	go run ./examples/sockets
package main

import (
	"fmt"
	"log"

	"procmig/internal/cluster"
	"procmig/internal/inet"
	"procmig/internal/kernel"
	"procmig/internal/sim"
	"procmig/internal/vm"
)

func main() {
	for _, ext := range []bool{true, false} {
		runScenario(ext)
	}
}

func runScenario(extension bool) {
	mode := "extension ON"
	if !extension {
		mode = "extension OFF (the paper's base mechanism)"
	}
	fmt.Printf("=== socket migration, %s ===\n", mode)

	c, err := cluster.New(cluster.Options{
		Hosts: []cluster.HostSpec{
			{Name: "brick", ISA: vm.ISA1},
			{Name: "schooner", ISA: vm.ISA1},
			{Name: "brador", ISA: vm.ISA1},
		},
		Config: kernel.Config{TrackNames: true, SocketMigration: extension},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.InstallVM("/bin/server", cluster.DatagramServerSrc); err != nil {
		log.Fatal(err)
	}
	const total = 15
	if err := c.InstallHosted("client", func(sys *kernel.Sys, args []string) int {
		fd, e := sys.Socket()
		if e != 0 {
			return 1
		}
		for i := 0; i < total; i++ {
			// Always addressed to brick, where the server started.
			sys.SendTo(fd, "brick", 4000, []byte("x"))
			sys.Sleep(sim.Second)
		}
		sys.SendTo(fd, "brick", 4000, []byte("q"))
		return 0
	}); err != nil {
		log.Fatal(err)
	}

	c.Eng.Go("driver", func(tk *sim.Task) {
		server, _ := c.Spawn("brick", nil, cluster.DefaultUser, "/bin/server")
		tk.Sleep(sim.Second)
		client, _ := c.Spawn("brador", nil, cluster.DefaultUser, "/bin/client")
		tk.Sleep(4 * sim.Second)

		fmt.Printf("[%v] migrating the server brick → schooner mid-stream...\n",
			sim.Duration(tk.Now()))
		dp, _ := c.Spawn("brick", nil, cluster.DefaultUser,
			"/bin/dumpproc", "-p", fmt.Sprint(server.PID))
		dp.AwaitExit(tk)
		rp, _ := c.Spawn("schooner", nil, cluster.DefaultUser,
			"/bin/restart", "-p", fmt.Sprint(server.PID), "-h", "brick")
		client.AwaitExit(tk)
		status := rp.AwaitExit(tk)

		switch {
		case status == 99:
			fmt.Printf("[%v] server BROKE after migration (socket became /dev/null)\n",
				sim.Duration(tk.Now()))
		default:
			fmt.Printf("[%v] server finished on schooner having received %d/%d datagrams\n",
				sim.Duration(tk.Now()), status, total)
			if stack, ok := c.Machine("brick").NetStackRef().(*inet.Stack); ok {
				fmt.Printf("      forwarding table on brick: %v\n", stack.Forwards())
			}
		}
	})
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}
