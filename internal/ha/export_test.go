package ha

import "procmig/internal/kernel"

// NewMachineSource exposes the kernel-backed StatSource hbd reads.
func NewMachineSource(m *kernel.Machine) StatSource { return &machineSource{m: m} }
