package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minIterations is the fewest iterations an untraced run makes, whatever
// --seconds says, so every host-clock median has at least three samples.
// A traced run needs one untraced and one traced iteration.
const minIterations = 3

// metric is one reported metric: its unit and the clock it reads.
type metric struct {
	name, unit, clock string
}

// endToEnd lists the end-to-end metrics. The host ones apply to every
// workload and are the result line of an untraced run; the sim
// ones apply to the workloads that exercise them and replay exactly.
var endToEnd = []metric{
	{"setup_s", "s", "host"},
	{"run_s", "s", "host"},
	{"alloc_mib", "MiB", "host"},
	{"max_rss_mib", "MiB", "host"},
	{"fail_frac", "frac", "-"},
	{"stop_freeze_ms", "ms", "sim"},
	{"precopy_freeze_ms", "ms", "sim"},
	{"stop_migrate_ms", "ms", "sim"},
	{"precopy_migrate_ms", "ms", "sim"},
	{"wire_kib_per_mig", "KiB", "sim"},
	{"client_p50_ms", "ms", "sim"},
	{"client_p99_ms", "ms", "sim"},
	{"drain_makespan_s", "s", "sim"},
	{"detect_s", "s", "sim"},
	{"hb_msgs_per_host_s", "1/s", "sim"},
}

// resultEndToEnd are the end-to-end metrics printed in the last line of
// an untraced run: those every workload has, and that are never 0.
var resultEndToEnd = []string{"setup_s", "run_s", "alloc_mib", "max_rss_mib"}

// perLayer lists the per-layer metrics of a traced run, in print order.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{cpuMetric(l), "s", "host"})
	}
	ms = append(ms,
		metric{"trace.profile_cpu_s", "s", "host"},
		metric{"trace.overhead_frac", "frac", "host"},
	)
	for _, p := range []string{"warmup", "rollout", "baseline", "drain", "settle", "harvest", "bootstrap", "steady", "wave", "churn"} {
		ms = append(ms, metric{"phase." + p + "_s", "s", "host"})
	}
	ms = append(ms,
		metric{"phase.stop_hop_ms", "ms", "host"},
		metric{"phase.precopy_hop_ms", "ms", "host"},
		metric{"kernel.procs_us", "us", "host"},
		metric{"kernel.procs_calls", "count", "count"},
		metric{"obs.totals_us", "us", "host"},
		metric{"obs.prom_us", "us", "host"},
		metric{"load.attribute_us", "us", "host"},
		metric{"sim.ns_per_event", "ns", "host"},
		metric{"runtime.mallocs", "count", "host"},
		metric{"runtime.num_gc", "count", "host"},
		metric{"sim.events", "count", "count"},
		metric{"sim.scheduled", "count", "count"},
		metric{"sim.event_allocs", "count", "count"},
		metric{"sim.heap_max", "count", "count"},
	)
	for _, name := range registryCounters {
		ms = append(ms, countMetric(name))
	}
	return append(ms,
		metric{"pagestore.hit_ratio", "frac", "count"},
		metric{"nfs.client_bytes", "B", "count"},
		metric{"net.msgs", "count", "count"},
		metric{"net.bytes", "B", "count"},
		metric{"net.bytes_elided", "B", "count"},
		metric{"load.baseline_p99_ms", "ms", "count"},
		metric{"obs.series", "count", "count"},
	)
}()

// cpuMetric names a layer's CPU metric: sim.cpu_s, runtime.gc_cpu_s.
func cpuMetric(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_cpu_s"
	}
	return layer + ".cpu_s"
}

func countMetric(name string) metric {
	unit := "count"
	switch {
	case name == "stream.wire_bytes" || name == "stream.saved_bytes":
		unit = "B"
	case name == "kernel.sys_cpu_us" || name == "migd.backoff_wait_us":
		unit = "us"
	}
	return metric{name, unit, "count"}
}

// iteration launches one child process and decodes its Result.
func iteration(workload string, seed uint64, traced bool) (*Result, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-profile")
	}
	cmd := exec.Command(exe, args...)
	// The engine runs one goroutine at a time; a second processor takes
	// the garbage collector. More would only add scheduling noise.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	cmd.Stderr = os.Stderr
	// A child never outlives the run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("iteration: %w", err)
	}
	r := newResult()
	if err := json.Unmarshal(out, r); err != nil {
		return nil, wall, fmt.Errorf("iteration output: %w", err)
	}
	return r, wall, nil
}

// deterministic is the part of a Result that must replay exactly.
type deterministic struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Sim       map[string]float64 `json:"sim"`
	Samples   map[string]int     `json:"samples"`
	Counts    map[string]float64 `json:"counts"`
}

func detOf(r *Result) deterministic {
	return deterministic{r.Attempted, r.Failed, r.Sim, r.Samples, r.Counts}
}

// replayDiff names the first difference between two deterministic
// records, or returns "" if they are identical.
func replayDiff(a, b deterministic) string {
	if reflect.DeepEqual(a, b) {
		return ""
	}
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		return fmt.Sprintf("attempted/failed %d/%d vs %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
	}
	for _, pair := range []struct{ x, y map[string]float64 }{{a.Sim, b.Sim}, {a.Counts, b.Counts}} {
		for _, k := range unionKeys(pair.x, pair.y) {
			if x, y := pair.x[k], pair.y[k]; x != y {
				return fmt.Sprintf("%s %v vs %v", k, x, y)
			}
		}
	}
	return "sample counts differ"
}

func unionKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkLedger compares this run's deterministic record with the one an
// earlier run of the same binary recorded for the same workload and
// seed, and records it if there is none yet.
func checkLedger(dir, workload string, seed uint64, d deterministic) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "replay", hex.EncodeToString(h.Sum(nil))[:16], fmt.Sprintf("%s-%d.json", workload, seed))
	want, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	if got, err := os.ReadFile(path); err == nil {
		var prev deterministic
		if err := json.Unmarshal(got, &prev); err != nil {
			return "", fmt.Errorf("replay ledger %s: %w", path, err)
		}
		return replayDiff(prev, d), nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	return "", os.WriteFile(path, want, 0o644)
}

// parentMain runs the iterations, checks them, and prints the report.
func parentMain(workload string, seed uint64, seconds int, trace bool, dir string) int {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var plain, traced []*Result
	var failures []string
	var walls []float64
	for i := 0; ; i++ {
		tracedIter := trace && i%2 == 1
		r, wall, err := iteration(workload, seed, tracedIter)
		walls = append(walls, wall.Seconds())
		if err != nil {
			failures = append(failures, err.Error())
			break
		}
		if tracedIter {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		need := len(plain) < minIterations
		if trace {
			need = len(plain) == 0 || len(traced) == 0
		}
		next := time.Duration(median(walls) * float64(time.Second))
		if !need && time.Since(start)+next > budget {
			break
		}
	}

	all := append(append([]*Result(nil), plain...), traced...)
	var attempted, failed int64
	for i, r := range all {
		attempted += r.Attempted
		failed += r.Failed
		for _, f := range r.Failures {
			failures = append(failures, fmt.Sprintf("iteration %d: %s", i, f))
		}
		if i > 0 {
			if d := replayDiff(detOf(all[0]), detOf(r)); d != "" {
				failures = append(failures, fmt.Sprintf("replay: iteration %d differs from iteration 0: %s", i, d))
			}
		}
	}
	if len(all) > 0 {
		d, err := checkLedger(dir, workload, seed, detOf(all[0]))
		if err != nil {
			failures = append(failures, err.Error())
		} else if d != "" {
			failures = append(failures, "replay: differs from an earlier run of this binary: "+d)
		}
	}
	for _, t := range traced {
		var sum int64
		for _, v := range t.CPUns {
			sum += v
		}
		if sum != t.CPUTot || t.CPUTot <= 0 {
			failures = append(failures, fmt.Sprintf("per-layer cpu sums to %d ns, profile total %d ns", sum, t.CPUTot))
		}
	}

	e2e := map[string]float64{
		"setup_s":     medianOf(plain, func(r *Result) float64 { return r.SetupS }),
		"run_s":       medianOf(plain, runS),
		"alloc_mib":   medianOf(plain, func(r *Result) float64 { return r.AllocMiB }),
		"max_rss_mib": medianOf(plain, func(r *Result) float64 { return r.MaxRSSMiB }),
	}
	samples := map[string]int{"setup_s": len(plain), "run_s": len(plain), "alloc_mib": len(plain), "max_rss_mib": len(plain)}
	if len(all) > 0 {
		r0 := all[0]
		if r0.Attempted > 0 {
			e2e["fail_frac"] = float64(r0.Failed) / float64(r0.Attempted)
			samples["fail_frac"] = int(r0.Attempted)
		}
		for k, v := range r0.Sim {
			e2e[k], samples[k] = v, r0.Samples[k]
		}
	}

	correct := len(failures) == 0 && len(plain) > 0 && attempted > 0
	fmt.Printf("perfbench %s seed=%d iterations=%d traced=%d correct=%v attempted=%d failed=%d\n",
		workload, seed, len(plain), len(traced), correct, attempted, failed)
	fmt.Print("run_s per iteration:")
	for _, r := range all {
		fmt.Printf(" %.3f", r.RunS)
	}
	fmt.Println()
	for _, f := range failures {
		fmt.Printf("FAIL %s\n", f)
	}
	fmt.Printf("%-24s %14s %-6s %-5s %s\n", "end-to-end", "value", "unit", "clock", "samples")
	for _, m := range endToEnd {
		v, ok := e2e[m.name]
		if !ok {
			fmt.Printf("%-24s %14s %-6s %-5s\n", m.name, "n/a", m.unit, m.clock)
			continue
		}
		fmt.Printf("%-24s %14.6g %-6s %-5s %d\n", m.name, v, m.unit, m.clock, samples[m.name])
	}

	metrics := map[string]any{}
	if trace {
		layer := perLayerValues(plain, traced)
		fmt.Printf("%-24s %14s %-6s %-5s\n", "per-layer", "value", "unit", "clock")
		for _, m := range perLayer {
			fmt.Printf("%-24s %14.6g %-6s %-5s\n", m.name, layer[m.name], m.unit, m.clock)
			metrics[m.name] = map[string]any{"value": layer[m.name], "unit": m.unit}
		}
	} else {
		for _, name := range resultEndToEnd {
			metrics[name] = map[string]any{"value": e2e[name], "unit": unitOf(name)}
		}
	}
	if attempted == 0 {
		attempted = 1 // the run itself was attempted
		failed = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	return 0
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// perLayerValues folds the traced iterations into the per-layer metrics:
// CPU per layer is the mean over traced iterations (so the layers still
// sum to the mean profile total), spans are medians, counts come from
// any iteration since they replay exactly.
func perLayerValues(plain, traced []*Result) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	if len(traced) == 0 {
		return out
	}
	for _, t := range traced {
		for l, ns := range t.CPUns {
			out[cpuMetric(l)] += float64(ns) / 1e9 / float64(len(traced))
		}
		out["trace.profile_cpu_s"] += float64(t.CPUTot) / 1e9 / float64(len(traced))
	}
	for k := range traced[0].Host {
		out[k] = medianOf(traced, func(r *Result) float64 { return r.Host[k] })
	}
	for k, v := range traced[0].Counts {
		out[k] = v
	}
	if u := medianOf(plain, runS); u > 0 {
		out["trace.overhead_frac"] = medianOf(traced, runS)/u - 1
	}
	return out
}

func runS(r *Result) float64 { return r.RunS }

// medianOf is the median of one field over a set of iterations.
func medianOf(rs []*Result, field func(*Result) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = field(r)
	}
	return median(v)
}
