package ha

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"procmig/internal/sim"
)

// membershipReplayDigest pins the membership table's observable behaviour:
// the exact summaries appendGossip emits (news-queue order, rotation
// cursor, budgets) and every row ViewInto/Get/Alive/LastHeard report,
// over a seeded mix of beacons, wire-keyed summaries, probe suspicions,
// refutations and incarnation bumps about 50 hosts inserted out of name
// order. A change to the table's representation must not move it.
const membershipReplayDigest = "47f3b1403b79d079"

func TestMembershipReplayGolden(t *testing.T) {
	if got := membershipReplay(nil); got != membershipReplayDigest {
		t.Fatalf("membership replay digest = %s, want %s", got, membershipReplayDigest)
	}
}

// membershipReplay runs the scripted workload and returns the FNV-64a
// digest of everything the table emitted, in hex. visit, if non-nil, sees
// the table after every step.
func membershipReplay(visit func(ms *Membership, now sim.Time)) string {
	const hosts = 50
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%02d", i)
	}
	// Fisher-Yates, so members join in an order unrelated to their names.
	for i := len(names) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	self := names[hosts/2]
	ms := NewMembership(self, 3*sim.Second)
	ms.SetGossipParams(sim.Second/2, 7, 4)

	h := fnv.New64a()
	seqs := map[string]uint32{}
	incs := map[string]uint32{}
	joined := 5 // members the workload may name so far; grows to all
	var (
		gossip []MemberSummary
		buf    ViewBuf
		procs  []ProcStat
		hb     Heartbeat
	)
	for step := 0; step < 3000; step++ {
		now := sim.Time(step) * sim.Time(100*sim.Millisecond)
		if joined < hosts && step%40 == 0 {
			joined++
		}
		host := names[int(next()%uint64(joined))]
		switch op := next() % 16; {
		case op < 6: // direct beacon, sometimes stale, sometimes reborn
			switch r := next() % 10; {
			case r == 0:
				incs[host]++
				seqs[host] = 1
			case r == 1 && seqs[host] > 1:
				seqs[host] -= 2 // stale duplicate
			default:
				seqs[host]++
			}
			procs = procs[:0]
			for i := 0; i < int(next()%4); i++ {
				procs = append(procs, ProcStat{PID: int(next() % 1000), Age: sim.Duration(step), CPU: sim.Duration(i)})
			}
			hb = Heartbeat{Host: host, Seq: seqs[host], Inc: incs[host], Load: int(next() % 9), Procs: procs}
			ms.Observe(&hb, now)
		case op < 12: // gossiped summary off the wire
			age := sim.Duration(next()%uint64(6*sim.Second)) - sim.Second
			inc := incs[host]
			if r := next() % 8; r == 0 && inc > 0 {
				inc--
			} else if r == 1 {
				inc++
			}
			ms.ObserveSummaryBytes([]byte(host), uint32(next()%40), inc, int(next()%9),
				next()%8 == 0, now-sim.Time(age), now)
		case op < 13: // failed probe
			ms.Suspect(host, now)
		default: // beacon build: emit the piggyback
			gossip = ms.appendGossip(gossip[:0], 1+int(next()%8), now)
			for _, s := range gossip {
				fmt.Fprintf(h, "g%d %s %d %d %d %d %t\n", step, s.Host, s.Seq, s.Inc, s.Load, s.Age, s.Suspect)
			}
		}
		if m, ok := ms.Get(host, now); ok {
			writeMember(h, "get", step, m)
		}
		lh, ok := ms.LastHeard(host)
		fmt.Fprintf(h, "a%d %t %d %t %d %d\n", step, ms.Alive(host, now), lh, ok, ms.Len(), ms.Gen())
		if step%100 == 0 {
			gossip = ms.AppendSummaries(gossip[:0], now)
			for _, s := range gossip {
				fmt.Fprintf(h, "s%d %s %d %d %d %d %t\n", step, s.Host, s.Seq, s.Inc, s.Load, s.Age, s.Suspect)
			}
		}
		if step%25 == 0 {
			for _, m := range ms.ViewInto(now, &buf) {
				writeMember(h, "view", step, m)
			}
		}
		if visit != nil {
			visit(ms, now)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeMember(w io.Writer, tag string, step int, m Member) {
	fmt.Fprintf(w, "%s%d %s %d %d %d %d %d %t %t %v\n", tag, step, m.Host, m.Seq, m.Inc,
		m.Load, m.CensusAt, m.LastHeard, m.Alive, m.Suspected, m.Procs)
}
