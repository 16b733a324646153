package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"procmig/internal/kernel"
	"procmig/internal/netsim"
	"procmig/internal/nfs"
	"procmig/internal/obs"
	"procmig/internal/sim"
)

// Result is one iteration's outcome, printed by the child as JSON.
type Result struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	AllocMiB  float64 `json:"alloc_mib"`
	MaxRSSMiB float64 `json:"max_rss_mib"`

	// Operations attempted and failed, and every check that failed.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures"`

	// Sim holds the sim-clock end-to-end metrics and Samples the sample
	// count behind each. Counts are the deterministic per-layer counts.
	// All three replay exactly for a fixed seed.
	Sim     map[string]float64 `json:"sim"`
	Samples map[string]int     `json:"samples"`
	Counts  map[string]float64 `json:"counts"`

	// Host holds host-clock per-layer metrics: spans around the
	// benchmark's calls (traced iterations only), runtime counters, and
	// the per-layer CPU split in nanoseconds (traced iterations only).
	Host   map[string]float64 `json:"host"`
	CPUns  map[string]int64   `json:"cpu_ns,omitempty"`
	CPUTot int64              `json:"cpu_total_ns,omitempty"`
}

func newResult() *Result {
	return &Result{
		Sim: map[string]float64{}, Samples: map[string]int{},
		Counts: map[string]float64{}, Host: map[string]float64{},
	}
}

// setSim records a sim-clock metric and the samples behind it.
func (r *Result) setSim(name string, v float64, n int) {
	r.Sim[name] = v
	r.Samples[name] = n
}

// meter times one iteration: set-up, then the simulated run, with the
// CPU profile and the call spans active only in traced iterations.
type meter struct {
	res     *Result
	traced  bool
	prof    bytes.Buffer
	setupT0 time.Time
	runT0   time.Time
	mem0    runtime.MemStats
	spans   map[string]time.Duration // summed host time per span name
	calls   map[string]int           // calls per span name
}

func newMeter(traced bool) *meter {
	return &meter{
		res: newResult(), traced: traced, setupT0: time.Now(),
		spans: map[string]time.Duration{}, calls: map[string]int{},
	}
}

// beginRun ends set-up and starts the measured run.
func (m *meter) beginRun() {
	m.res.SetupS = time.Since(m.setupT0).Seconds()
	runtime.ReadMemStats(&m.mem0)
	if m.traced {
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			m.res.Failures = append(m.res.Failures, "cpu profile: "+err.Error())
		}
	}
	m.runT0 = time.Now()
}

// endRun stops the clock, the profile and the allocation count.
func (m *meter) endRun() {
	m.res.RunS = time.Since(m.runT0).Seconds()
	if m.traced {
		pprof.StopCPUProfile()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.res.AllocMiB = float64(ms.TotalAlloc-m.mem0.TotalAlloc) / (1 << 20)
	m.res.Host["runtime.mallocs"] = float64(ms.Mallocs - m.mem0.Mallocs)
	m.res.Host["runtime.num_gc"] = float64(ms.NumGC - m.mem0.NumGC)
	m.perCallUS("kernel.procs", "kernel.procs_us")
	m.perCallUS("load.attribute", "load.attribute_us")
	for name, d := range m.spans {
		m.res.Host[name] = d.Seconds()
	}
}

// span times one call or phase of the benchmark's own code; the
// returned func ends it. Untraced iterations pay one branch.
func (m *meter) span(name string) func() {
	if !m.traced {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		m.spans[name] += time.Since(t0)
		m.calls[name]++
	}
}

// perCallUS reports a span as host microseconds per call.
func (m *meter) perCallUS(span, metric string) {
	if n := m.calls[span]; n > 0 {
		m.res.Host[metric] = m.spans[span].Seconds() * 1e6 / float64(n)
	}
	delete(m.spans, span)
}

// procs is the census call every workload uses to list a host's
// processes: counted always, timed when traced.
func (m *meter) procs(mc *kernel.Machine) []*kernel.Proc {
	m.res.Counts["kernel.procs_calls"]++
	end := m.span("kernel.procs")
	ps := mc.Procs()
	end()
	return ps
}

// registryCounters are read from Registry.Totals into Counts.
var registryCounters = []string{
	"kernel.syscalls", "kernel.sys_cpu_us", "kernel.dumps", "kernel.dump_aborts",
	"stream.records", "stream.pages_raw", "stream.pages_lz", "stream.pages_ref",
	"stream.pages_zero", "stream.pages_spec", "stream.wire_bytes", "stream.saved_bytes",
	"stream.resends", "stream.hash_mismatches",
	"pagestore.hits", "pagestore.misses", "pagestore.inserts", "pagestore.evictions",
	"hb.beacons_out", "hb.beacons_in", "hb.summaries_in", "hb.syncs_out",
	"ha.suspicions", "ha.false_suspicions",
	"controller.rounds", "controller.drain_waves", "controller.drain_moves",
	"controller.drain_prewarms", "controller.move_failed",
	"migd.txn_commits", "migd.txn_aborts", "migd.client_retries", "migd.call_retries",
	"migd.stream_rounds", "migd.backoff_wait_us",
	"load.submitted", "load.completed", "load.dropped", "load.slo_breaches",
}

// harvest reads the engine, network and registry counters at the end of
// the run, the way an operator scrapes them: Registry.Totals, a full
// Snapshot and a Prometheus export. It is part of the measured run.
func (m *meter) harvest(eng *sim.Engine, net *netsim.Network, hosts []string, reg *obs.Registry) {
	c := m.res.Counts
	st := eng.Stats()
	c["sim.events"] = float64(st.Dispatched)
	c["sim.scheduled"] = float64(st.Scheduled)
	c["sim.event_allocs"] = float64(st.EventAllocs)
	c["sim.heap_max"] = float64(st.HeapMax)
	c["net.msgs"] = float64(net.Messages)
	c["net.bytes"] = float64(net.Bytes)
	c["net.bytes_elided"] = float64(net.BytesElided)
	var nfsBytes int64
	for _, hn := range hosts {
		if h, ok := net.Host(hn); ok {
			nfsBytes += h.ClientBytes(nfs.Port)
		}
	}
	c["nfs.client_bytes"] = float64(nfsBytes)

	end := m.span("obs.totals")
	totals := reg.Totals()
	end()
	m.perCallUS("obs.totals", "obs.totals_us")
	byName := make(map[string]int64, len(totals))
	for _, row := range totals {
		byName[row.Name] = row.Value
	}
	for _, name := range registryCounters {
		c[name] += float64(byName[name])
	}
	if looked := c["pagestore.hits"] + c["pagestore.misses"]; looked > 0 {
		c["pagestore.hit_ratio"] = c["pagestore.hits"] / looked
	}
	c["obs.series"] = float64(len(reg.Snapshot()))

	var w countingWriter
	end = m.span("obs.prom")
	err := obs.WriteProm(&w, reg)
	end()
	m.perCallUS("obs.prom", "obs.prom_us")
	if err != nil || w.n == 0 {
		m.res.Failures = append(m.res.Failures, fmt.Sprintf("prometheus export failed: %v (%d bytes)", err, w.n))
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// maxRSSMiB is the process's peak resident set (VmHWM).
func maxRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// childMain runs one iteration and prints its Result.
func childMain(name string, run func(uint64, *meter) error, seed uint64, traced bool) int {
	m := newMeter(traced)
	if err := run(seed, m); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	r := m.res
	r.MaxRSSMiB = maxRSSMiB()
	if ev := r.Counts["sim.events"]; ev > 0 {
		r.Host["sim.ns_per_event"] = r.RunS * 1e9 / ev
	}
	if traced {
		byLayer, total, err := cpuByLayer(m.prof.Bytes())
		if err != nil {
			r.Failures = append(r.Failures, err.Error())
		}
		r.CPUns, r.CPUTot = byLayer, total
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
