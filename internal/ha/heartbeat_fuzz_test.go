package ha_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"procmig/internal/ha"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// FuzzDecodeHeartbeat throws arbitrary bytes at the beacon decoder.
// Beacons arrive over the (fault-injected) network, so the decoder must
// reject anything malformed without panicking or allocating on behalf of
// a hostile length field, and every beacon it does accept must re-encode
// to exactly the bytes it was decoded from.
func FuzzDecodeHeartbeat(f *testing.F) {
	good := &ha.Heartbeat{Host: "alpha", Seq: 42, Load: 3, Procs: []ha.ProcStat{
		{PID: 1042, OldPID: 17, Age: 9 * sim.Second, CPU: 4 * sim.Second},
		{PID: 2042, Age: sim.Second, CPU: 500 * sim.Millisecond},
	}}
	raw := good.Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)-1])
	f.Add(raw[:3])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, raw...), 0)) // trailing garbage
	f.Add((&ha.Heartbeat{Host: "x"}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := ha.DecodeHeartbeat(data)
		if err != nil {
			return
		}
		if !bytes.Equal(hb.Encode(), data) {
			t.Fatalf("accepted beacon does not round-trip: %x", data)
		}
	})
}

// FuzzObserveHeartbeat is a differential fuzz of hbd's hot path, which
// validates a beacon and streams it into a membership table without
// materializing it. It must accept exactly the inputs DecodeHeartbeat
// accepts, and on acceptance leave the table as the slow path would: a
// fresh table that applies the decoded summaries with ObserveSummary and
// then the beacon with Observe. The hot table is keyed by a directory
// that already holds names out of order, as a node's shared one does.
func FuzzObserveHeartbeat(f *testing.F) {
	const self = "self"
	summ := func(host string, seq, inc uint32, age sim.Duration, suspect bool) ha.MemberSummary {
		return ha.MemberSummary{Host: host, Seq: seq, Inc: inc, Load: 2, Age: age, Suspect: suspect}
	}
	for _, hb := range []ha.Heartbeat{
		{Host: "alpha", Seq: 3, Procs: []ha.ProcStat{{PID: 7, CPU: sim.Second}}},
		{Host: "", Seq: 1, Summaries: []ha.MemberSummary{summ("", 1, 0, 0, false)}},
		{Host: strings.Repeat("h", 300), Seq: 2, Summaries: []ha.MemberSummary{
			summ(strings.Repeat("m", 1000), 4, 1, sim.Second, false)}},
		{Host: "beta", Seq: 9, Inc: 1, Summaries: []ha.MemberSummary{
			summ("gamma", 5, 0, 2*sim.Second, false),
			summ("gamma", 6, 0, sim.Second, true),
			summ("gamma", 2, 1, 3*sim.Second, false),
			summ("alpha", 1, 0, 20*sim.Second, true),
		}},
		{Host: self, Seq: 4, Summaries: []ha.MemberSummary{summ(self, 8, 2, 0, true), summ("zeta", 1, 0, 0, false)}},
		{Host: "delta", Seq: 1, Summaries: []ha.MemberSummary{summ("delta", 9, 3, 0, true), summ(self, 1, 0, 0, false)}},
	} {
		raw := hb.Encode()
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
	}
	now := sim.Time(100 * sim.Second)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := netsim.NewNames()
		for _, name := range []string{"zeta", self, "gamma", "alpha"} {
			dir.ID(name)
		}
		hot := ha.NewMembershipIn(dir, self, 3*sim.Second)
		hb, derr := ha.DecodeHeartbeat(data)
		herr := ha.ObserveHeartbeat(data, hot, now)
		if (derr == nil) != (herr == nil) {
			t.Fatalf("DecodeHeartbeat err %v, hot path err %v on %x", derr, herr, data)
		}
		if derr != nil {
			if hot.Len() != 0 || hot.Gen() != 0 {
				t.Fatalf("rejected beacon changed the table: %x", data)
			}
			return
		}
		ref := ha.NewMembership(self, 3*sim.Second)
		for _, s := range hb.Summaries {
			ref.ObserveSummary(s, now-sim.Time(s.Age), now)
		}
		ref.Observe(hb, now)
		if got, want := hot.View(now), ref.View(now); !reflect.DeepEqual(got, want) {
			t.Fatalf("hot path view\n%+v\nwant\n%+v\nfor %x", got, want, data)
		}
		if hot.Gen() != ref.Gen() {
			t.Fatalf("hot path gen %d, want %d", hot.Gen(), ref.Gen())
		}
	})
}
