package ha

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// TestMemberStateIsOneHalfLine gates the hot record's size: every summary
// touches it, and at 32 bytes two members share a cache line. A field that
// only some paths read belongs in memberCold.
func TestMemberStateIsOneHalfLine(t *testing.T) {
	if n := unsafe.Sizeof(memberState{}); n != 32 {
		t.Fatalf("memberState is %d bytes, want 32", n)
	}
}

// syncReference is the anti-entropy payload built the long way: the
// summaries materialized, then the whole heartbeat encoded.
func syncReference(ms *Membership, hdr Heartbeat, now sim.Time) []byte {
	hdr.Summaries = ms.AppendSummaries(nil, now)
	return hdr.AppendTo(nil)
}

// checkSync compares appendSync and syncLen against the reference.
func checkSync(t *testing.T, ms *Membership, hdr Heartbeat, now sim.Time) {
	t.Helper()
	want := syncReference(ms, hdr, now)
	got := ms.appendSync([]byte("prefix"), &hdr, now)
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("at %d: appendSync differs from the reference encoding\n got %x\nwant %x", now, got[6:], want)
	}
	if n := ms.syncLen(&hdr); n != len(want) {
		t.Fatalf("at %d: syncLen = %d, want %d", now, n, len(want))
	}
}

func TestAppendSyncMatchesHeartbeatEncoding(t *testing.T) {
	t.Run("replay", func(t *testing.T) {
		var suspects, reborn, steps int
		membershipReplay(func(ms *Membership, now sim.Time) {
			steps++
			if steps%7 != 0 {
				return
			}
			hdr := Heartbeat{Host: ms.self, Seq: uint32(steps), Inc: uint32(steps % 3), Load: steps % 11}
			if steps%2 == 0 {
				hdr.Procs = []ProcStat{{PID: steps, OldPID: 1, Age: sim.Duration(now), CPU: 3}}
			}
			checkSync(t, ms, hdr, now)
			for _, s := range ms.AppendSummaries(nil, now) {
				if s.Suspect {
					suspects++
				}
				if s.Inc > 0 {
					reborn++
				}
			}
		})
		if suspects == 0 || reborn == 0 {
			t.Fatalf("replay checked %d suspected and %d reborn summaries; want both", suspects, reborn)
		}
	})
	t.Run("empty roster", func(t *testing.T) {
		ms := NewMembership("solo", 3*sim.Second)
		hdr := Heartbeat{Host: "solo", Seq: 4, Inc: 1, Load: 2}
		checkSync(t, ms, hdr, 0)
		if got := ms.appendSync(nil, &hdr, 0); len(got) != hdr.mainLen() {
			t.Fatalf("empty roster encodes %d bytes, want the bare header (%d)", len(got), hdr.mainLen())
		}
	})
	t.Run("suspected and reborn", func(t *testing.T) {
		ms := NewMembership("h0", 3*sim.Second)
		for i, name := range []string{"h2", "h0", "h1", "h3"} {
			ms.Observe(&Heartbeat{Host: name, Seq: 5, Load: i}, sim.Time(i)*sim.Time(sim.Second))
		}
		ms.Suspect("h1", sim.Time(5*sim.Second))
		ms.Observe(&Heartbeat{Host: "h2", Seq: 1, Inc: 3, Load: -1}, sim.Time(6*sim.Second))
		ms.ObserveSummary(MemberSummary{Host: "h3", Seq: 9, Inc: 2, Load: 7, Suspect: true}, sim.Time(7*sim.Second), sim.Time(7*sim.Second))
		now := sim.Time(8 * sim.Second)
		var suspects, reborn int
		for _, s := range ms.AppendSummaries(nil, now) {
			if s.Suspect {
				suspects++
			}
			if s.Inc > 0 {
				reborn++
			}
		}
		if suspects != 2 || reborn != 2 {
			t.Fatalf("setup: %d suspected, %d reborn summaries; want 2 and 2", suspects, reborn)
		}
		checkSync(t, ms, Heartbeat{Host: "h0", Seq: 12, Inc: 0, Load: 3}, now)
	})
}

// syncNode is a node on a 1,000-host network whose table knows every
// host, plus a peer's full-state sync payload to push at it.
func syncNode(t *testing.T) (*Node, []byte) {
	const hosts = 1000
	eng := sim.NewEngine()
	net := netsim.New(eng, 100*sim.Microsecond, 0)
	var n *Node
	peer := NewMembershipIn(net.Names(), "h0001", 3*sim.Second)
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%04d", i)
		h := net.AddHost(name)
		if i == 0 {
			node, err := StartSource(eng, h, &syncSource{name: name}, nil, Config{})
			if err != nil {
				t.Fatal(err)
			}
			n = node
		}
	}
	for i := 0; i < hosts; i++ {
		hb := &Heartbeat{Host: fmt.Sprintf("h%04d", i), Seq: 1, Load: i % 5}
		n.members.Observe(hb, 0)
		peer.Observe(hb, 0)
	}
	hdr := Heartbeat{Host: "h0001", Seq: 1}
	return n, peer.appendSync(nil, &hdr, 0)
}

type syncSource struct{ name string }

func (s *syncSource) HostName() string { return s.name }
func (s *syncSource) RunQueueLen() int { return 3 }
func (s *syncSource) AppendProcStats(now sim.Time, dst []ProcStat) []ProcStat {
	return dst
}

// TestSyncEncodingAllocs gates the anti-entropy encoders at 1,000
// members: the push encodes into the node's reused buffer, and the reply
// is the handler's one allocation, sized exactly.
func TestSyncEncodingAllocs(t *testing.T) {
	n, push := syncNode(t)
	if got := len(n.encodeSync(0)); got != len(push) {
		t.Fatalf("push payload %d bytes, want %d", got, len(push))
	}
	if a := testing.AllocsPerRun(100, func() { n.encodeSync(0) }); a != 0 {
		t.Errorf("steady-state encodeSync allocates %.1f times", a)
	}
	var reply []byte
	if a := testing.AllocsPerRun(100, func() { reply = n.handleSync(nil, push) }); a != 1 {
		t.Errorf("handleSync allocates %.1f times, want 1", a)
	}
	if len(reply) != cap(reply) || len(reply) == 0 {
		t.Fatalf("reply len %d cap %d, want an exact-size payload", len(reply), cap(reply))
	}
	hdr := n.syncHeader()
	if want := syncReference(n.members, hdr, 0); !bytes.Equal(reply, want) {
		t.Fatal("handleSync reply differs from the reference encoding")
	}
}
