package ha

import (
	"fmt"
	"testing"

	"procmig/internal/sim"
)

// scaleTable is a table at 1,000-host scale: n members, each heard from by
// a direct beacon at time 0, with the join news already gossiped out.
func scaleTable(n int) (*Membership, [][]byte) {
	ms := NewMembership("h0000", 3*sim.Second)
	ms.SetGossipParams(sim.Second/2, 7, 4)
	names := make([][]byte, n)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("h%04d", i))
		ms.Observe(&Heartbeat{Host: string(names[i]), Seq: 1, Procs: []ProcStat{{PID: i}}}, 0)
	}
	var dst []MemberSummary
	for ms.qs[qJoin].head < len(ms.qs[qJoin].q) {
		dst = ms.appendGossip(dst[:0], 8, 0)
	}
	return ms, names
}

// BenchmarkObserveSummary is hbd's per-summary cost on a 1,000-member
// table: resolve the wire name, then fold the news in.
func BenchmarkObserveSummary(b *testing.B) {
	ms, names := scaleTable(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i) * sim.Time(sim.Millisecond)
		ms.ObserveSummaryBytes(names[i%len(names)], uint32(i), 0, i%7, false, now, now)
	}
}

// TestMembershipHotPathsAllocFree gates the table's hot paths at
// 1,000 members: a summary about a known host (BenchmarkObserveSummary's
// operation), a steady-state gossip piggyback and a row read allocate
// nothing.
func TestMembershipHotPathsAllocFree(t *testing.T) {
	ms, names := scaleTable(1000)
	now := sim.Time(sim.Second)
	if n := testing.AllocsPerRun(1000, func() {
		ms.ObserveSummaryBytes(names[500], 2, 0, 3, false, now, now)
	}); n != 0 {
		t.Errorf("ObserveSummaryBytes on a known host allocates %.1f times", n)
	}
	dst := ms.appendGossip(nil, 8, now)
	if n := testing.AllocsPerRun(1000, func() { dst = ms.appendGossip(dst[:0], 8, now) }); n != 0 {
		t.Errorf("steady-state appendGossip allocates %.1f times", n)
	}
	if len(dst) != 8 {
		t.Fatalf("appendGossip emitted %d summaries, want 8", len(dst))
	}
	var m Member
	if n := testing.AllocsPerRun(1000, func() { m, _ = ms.Get("h0500", now) }); n != 0 {
		t.Errorf("Get allocates %.1f times", n)
	}
	if m.Host != "h0500" || len(m.Procs) != 1 || m.Procs[0].PID != 500 {
		t.Fatalf("Get = %+v", m)
	}
}
