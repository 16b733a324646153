package ha

import (
	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/sim"
)

// NewMachineSource exposes the kernel-backed StatSource hbd reads.
func NewMachineSource(m *kernel.Machine) StatSource { return &machineSource{m: m} }

// NewMembershipIn exposes a table keyed by IDs from a caller's directory,
// as a node's table is keyed by its network's.
func NewMembershipIn(dir *netsim.Names, self string, suspectAfter sim.Duration) *Membership {
	return newMembershipIn(dir, self, suspectAfter)
}

// ObserveHeartbeat exposes hbd's hot path: validate raw, stream its
// summaries into ms, then observe the beacon itself.
func ObserveHeartbeat(raw []byte, ms *Membership, now sim.Time) error {
	var hb Heartbeat
	_, err := decodeHeartbeatObserve(raw, &hb, ms, now)
	return err
}
