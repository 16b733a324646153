package ha_test

import (
	"testing"

	"procmig/internal/cluster"
	"procmig/internal/ha"
	"procmig/internal/kernel"
	"procmig/internal/sim"
)

// TestMachineCensusAllocFree: hbd's per-beacon census of a real kernel
// allocates nothing once its buffers are warm, even on a machine whose
// pids start at 79,001 (the 80th host of a staggered cluster).
func TestMachineCensusAllocFree(t *testing.T) {
	c, err := cluster.NewSimple("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallVM("/bin/hog", cluster.HogSrc); err != nil {
		t.Fatal(err)
	}
	m := c.Machine("alpha")
	m.SetNextPID(79_001)
	for i := 0; i < 4; i++ {
		if _, err := c.Spawn("alpha", nil, cluster.DefaultUser, "/bin/hog"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunUntil(sim.Time(2 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	src := ha.NewMachineSource(m)
	now := c.Eng.Now()
	dst := src.AppendProcStats(now, nil)
	if len(dst) != 4 || dst[0].PID != 79_001 {
		t.Fatalf("census = %+v, want 4 hogs from pid 79001", dst)
	}
	if n := testing.AllocsPerRun(100, func() { dst = src.AppendProcStats(now, dst[:0]) }); n != 0 {
		t.Fatalf("AppendProcStats allocates %.1f times per beacon", n)
	}
	for _, p := range m.Procs() {
		m.Kill(kernel.Creds{}, p.PID, kernel.SIGKILL)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}
