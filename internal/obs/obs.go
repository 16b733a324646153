// Package obs is the observability layer: a metrics registry (counters,
// gauges, fixed-bucket histograms) and a span tracer, both running entirely
// on simulated time. The paper evaluated migration with a handful of
// hand-timed numbers; this package is the general version — every subsystem
// (kernel, core stream engine, netsim, migd transactions, ha guardians)
// reports through it, and migsim/migbench render the results.
//
// Design constraints, in order:
//
//  1. No wall clock. Every timestamp is a sim.Time; the same seed produces
//     the same metrics and the same trace, bit for bit.
//  2. Zero allocations on hot paths. Callers resolve counters once (get-or-
//     create returns a stable pointer) and increment through the pointer;
//     Observe on a histogram touches only fixed arrays. The simulation
//     engine runs one task at a time, switching between them as
//     coroutines, so plain int64 arithmetic is safe without atomics.
//  3. Deterministic output. Snapshots sort by host then name.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"procmig/internal/sim"
)

// Counter is a monotonically increasing value.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (negative n is tolerated but unconventional).
func (c *Counter) Add(n int64) { c.v += n }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a value that can move both ways (queue depths, live bytes).
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v = n }

// Add moves the value by n.
func (g *Gauge) Add(n int64) { g.v += n }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts observations into fixed buckets. The bounds slice is
// shared between histograms (the package-level bucket sets), never written;
// counts[i] holds observations <= Bounds[i], counts[len(Bounds)] the rest.
type Histogram struct {
	bounds []int64
	counts []int64
	n, sum int64
}

// LatencyBuckets is the shared bucket set for durations, in microseconds
// (sim.Duration's unit): 100µs up to 100s.
var LatencyBuckets = []int64{
	100, 1000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
}

// SizeBuckets is the shared bucket set for byte counts: 256 B up to 4 MiB.
var SizeBuckets = []int64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
}

// Observe records one value. Allocation-free: a linear scan over at most a
// dozen bounds is cheaper than the binary search's branch misses at these
// sizes.
func (h *Histogram) Observe(v int64) {
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count reports how many values were observed.
func (h *Histogram) Count() int64 { return h.n }

// Sum reports the total of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Buckets renders the non-empty buckets as "<=bound:count" pairs.
func (h *Histogram) Buckets() string {
	out := ""
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		if i < len(h.bounds) {
			out += fmt.Sprintf("<=%d:%d", h.bounds[i], c)
		} else {
			out += fmt.Sprintf(">%d:%d", h.bounds[len(h.bounds)-1], c)
		}
	}
	return out
}

// Scope is one host's (or one subsystem's) named metrics. Get-or-create
// lookups return stable pointers, so wiring code resolves each metric once
// and hot paths pay only a pointer dereference.
type Scope struct {
	host string
	reg  *Registry

	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	winds    map[string]*WindowedHDR
}

// Counter returns the named counter, creating it on first use.
func (s *Scope) Counter(name string) *Counter {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later callers get the original regardless of bounds).
func (s *Scope) Histogram(name string, bounds []int64) *Histogram {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	h := s.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		s.hists[name] = h
	}
	return h
}

// Windowed returns the named windowed HDR histogram, creating it with the
// given window width on first use (later callers get the original regardless
// of width). This is the latency instrument: all-time quantiles for
// Snapshot/Totals plus a sealed-window time series for timeline export.
func (s *Scope) Windowed(name string, width sim.Duration) *WindowedHDR {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	w := s.winds[name]
	if w == nil {
		w = NewWindowedHDR(width)
		s.winds[name] = w
	}
	return w
}

// Host reports which host the scope belongs to.
func (s *Scope) Host() string { return s.host }

// Registry holds every host's scope plus the cluster's one shared Tracer,
// so a single handle wires a whole cluster. The mutex covers scope and
// metric creation (cold path only) and concurrent test engines.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope
	Tracer *Tracer
}

// NewRegistry creates an empty registry with a fresh tracer.
func NewRegistry() *Registry {
	return &Registry{scopes: map[string]*Scope{}, Tracer: NewTracer()}
}

// Scope returns the named host's scope, creating it on first use.
func (r *Registry) Scope(host string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.scopes[host]
	if s == nil {
		s = &Scope{
			host: host, reg: r,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			hists:    map[string]*Histogram{},
			winds:    map[string]*WindowedHDR{},
		}
		r.scopes[host] = s
	}
	return s
}

// Hosts lists the scopes in sorted order.
func (r *Registry) Hosts() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.scopes))
	for h := range r.scopes {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Row is one rendered metric: a counter or gauge Value, or a histogram
// (Value = sum, Detail = count and buckets).
type Row struct {
	Host   string
	Name   string
	Value  int64
	Detail string // histograms: "n=<count> <buckets>"; otherwise empty
}

// Snapshot renders every metric, sorted by host then name — deterministic
// for a deterministic run.
func (r *Registry) Snapshot() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for host, s := range r.scopes {
		for name, c := range s.counters {
			out = append(out, Row{Host: host, Name: name, Value: c.v})
		}
		for name, g := range s.gauges {
			out = append(out, Row{Host: host, Name: name, Value: g.v})
		}
		for name, h := range s.hists {
			out = append(out, Row{
				Host: host, Name: name, Value: h.sum,
				Detail: fmt.Sprintf("n=%d %s", h.n, h.Buckets()),
			})
		}
		for name, w := range s.winds {
			out = append(out, Row{
				Host: host, Name: name, Value: w.total.sum,
				Detail: w.total.Summary(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CounterRows renders only the counters, sorted by host then name.
// Counters are monotone by contract while gauges move both ways, and
// Snapshot does not distinguish them — invariant checkers that assert "no
// counter ever regresses" need this narrower view.
func (r *Registry) CounterRows() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Row
	for host, s := range r.scopes {
		for name, c := range s.counters {
			out = append(out, Row{Host: host, Name: name, Value: c.v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Totals renders the cluster-wide view, sorted by name: counters and gauges
// of the same name sum across hosts, and histograms of the same name *merge*
// — bucket-wise, so the merged quantiles are the quantiles of the union
// (averaging per-host percentiles would be wrong). Fixed-bucket histograms
// merge only when their bounds agree (they always do: bounds come from the
// shared package-level sets).
func (r *Registry) Totals() []Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := map[string]int64{}
	hists := map[string]*Histogram{}
	hdrs := map[string]*HDR{}
	for _, s := range r.scopes {
		for name, c := range s.counters {
			sums[name] += c.v
		}
		for name, g := range s.gauges {
			sums[name] += g.v
		}
		for name, h := range s.hists {
			m := hists[name]
			if m == nil {
				m = &Histogram{bounds: h.bounds, counts: make([]int64, len(h.counts))}
				hists[name] = m
			}
			if len(m.counts) != len(h.counts) {
				continue // foreign bounds: leave the row per-host only
			}
			for i, c := range h.counts {
				m.counts[i] += c
			}
			m.n += h.n
			m.sum += h.sum
		}
		for name, w := range s.winds {
			m := hdrs[name]
			if m == nil {
				m = &HDR{}
				hdrs[name] = m
			}
			m.Merge(&w.total)
		}
	}
	out := make([]Row, 0, len(sums)+len(hists)+len(hdrs))
	for name, v := range sums {
		out = append(out, Row{Name: name, Value: v})
	}
	for name, h := range hists {
		out = append(out, Row{
			Name: name, Value: h.sum,
			Detail: fmt.Sprintf("n=%d %s", h.n, h.Buckets()),
		})
	}
	for name, h := range hdrs {
		out = append(out, Row{Name: name, Value: h.sum, Detail: h.Summary()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
