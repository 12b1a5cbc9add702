// Package obs is the observability layer of the simulation: a
// deterministic, allocation-light metrics registry (counters, gauges and
// virtual-time histograms) shared by the kernel, the controller, the
// defense modules and the dataplane. Causal records — topology changes,
// alerts, verdicts, probe flights — are spans on the registry's attached
// recorder (package trace), not registry state.
//
// Everything in this package follows the repository's determinism
// contract: all timestamps are virtual (drawn from the owning sim.Kernel,
// never the wall clock), registries are per-network (one per trial), and
// snapshots render in a canonical sorted order, so an instrumented run
// produces byte-identical metric output for a fixed seed regardless of
// how many worker goroutines the experiment executor uses. The only
// wall-clock construct is KernelProfile, which is explicitly excluded
// from registries and snapshots.
//
// Like the kernel itself, a Registry is not safe for concurrent use: it
// lives on its simulation's single event loop. Cross-thread consumers
// (e.g. the controllerd HTTP endpoint) must snapshot it from the kernel
// goroutine (rtnet's Driver.Call) and render the snapshot outside.
package obs

import (
	"sort"
	"time"

	"sdntamper/internal/obs/trace"
	"sdntamper/internal/stats"
)

// Counter is a monotonically increasing event count. Hot paths resolve
// the counter once (at construction/bind time) and hold the pointer, so
// recording is a single integer increment with no map lookups.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level (queue depth, table size).
type Gauge struct {
	v int64
}

// Set overwrites the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Add shifts the level by delta.
func (g *Gauge) Add(delta int64) { g.v += delta }

// SetMax raises the level to v if v is higher (high-water marks).
func (g *Gauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v }

// DefaultLatencyBuckets are the histogram bucket upper bounds used when a
// histogram is created without explicit bounds. They span the latencies
// the paper's evaluation cares about: sub-millisecond control hops up to
// multi-second probe timeouts.
func DefaultLatencyBuckets() []time.Duration {
	return []time.Duration{
		500 * time.Microsecond,
		time.Millisecond,
		2 * time.Millisecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		20 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		5 * time.Second,
	}
}

// histogramSampleCap bounds the raw samples a histogram retains for
// quantile queries. Bucket counts, the total count and the sum are exact
// over the full stream; quantiles are computed over the first retained
// samples (deterministic: retention depends only on arrival order).
const histogramSampleCap = 4096

// Histogram accumulates virtual-time durations into fixed cumulative
// buckets (exact over the full stream) and retains a bounded prefix of
// raw samples for quantile queries via the stats package.
type Histogram struct {
	bounds  []time.Duration
	buckets []uint64 // observations <= bounds[i]; len == len(bounds)
	count   uint64
	sum     time.Duration
	samples []time.Duration // first histogramSampleCap observations
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count++
	h.sum += d
	for i, b := range h.bounds {
		if d <= b {
			h.buckets[i]++
		}
	}
	if len(h.samples) < histogramSampleCap {
		h.samples = append(h.samples, d)
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Series copies the retained samples into a stats.DurationSeries for
// quantile and distribution queries.
func (h *Histogram) Series() *stats.DurationSeries {
	s := &stats.DurationSeries{}
	for _, d := range h.samples {
		s.Add(d)
	}
	return s
}

// Quantile reports the q-th quantile over the retained samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Series().Quantile(q)
}

// Registry holds a network's metrics, keyed by name. Names follow the
// Prometheus convention, optionally carrying a label set in braces:
//
//	controller_packetin_total
//	dataplane_tx_frames_total{dpid="0x1",port="2"}
//
// Get-or-create accessors are meant for construction time; hot paths keep
// the returned pointers.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *trace.Recorder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero if absent.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it at zero if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the default
// latency buckets if absent.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWithBuckets(name, nil)
}

// HistogramWithBuckets returns the named histogram, creating it with the
// given bucket upper bounds (nil for DefaultLatencyBuckets) if absent.
// Bounds are only applied on creation.
func (r *Registry) HistogramWithBuckets(name string, bounds []time.Duration) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// SetTracer attaches a span recorder to the registry, giving every
// consumer that already holds the registry (notably the Verdicts
// families the defenses bind) a path to the flight recorder without new
// plumbing. Nil detaches. The tracer is NOT part of snapshots or
// Merge — spans merge through trace.Merge with their own ordering
// contract.
func (r *Registry) SetTracer(t *trace.Recorder) { r.tracer = t }

// Tracer reports the attached span recorder, or nil. Callers must read
// it at use time, not cache it at bind time: tracing is typically
// enabled after the network (and its defenses) are fully built.
func (r *Registry) Tracer() *trace.Recorder { return r.tracer }

// counterNames returns the counter names sorted.
func (r *Registry) counterNames() []string {
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) gaugeNames() []string {
	out := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (r *Registry) histNames() []string {
	out := make([]string, 0, len(r.hists))
	for name := range r.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Merge folds src into dst: counters and gauges add, histogram buckets,
// counts and sums add, and retained samples concatenate (up to the
// retention cap) in call order. Merging per-trial registries in seed
// order therefore yields the same aggregate bytes regardless of how the
// trials were scheduled. Histograms merged across registries must share
// bucket bounds; mismatched bounds merge exact aggregates only.
func Merge(dst, src *Registry) {
	for name, c := range src.counters {
		dst.Counter(name).Add(c.v)
	}
	for name, g := range src.gauges {
		dst.Gauge(name).Add(g.v)
	}
	for name, h := range src.hists {
		d := dst.HistogramWithBuckets(name, h.bounds)
		d.count += h.count
		d.sum += h.sum
		if len(d.bounds) == len(h.bounds) {
			for i := range h.buckets {
				d.buckets[i] += h.buckets[i]
			}
		}
		for _, s := range h.samples {
			if len(d.samples) >= histogramSampleCap {
				break
			}
			d.samples = append(d.samples, s)
		}
	}
}

// MergeAll merges the registries in order into a fresh registry. Nil
// entries (skipped trials) are ignored.
func MergeAll(regs ...*Registry) *Registry {
	out := NewRegistry()
	for _, r := range regs {
		if r != nil {
			Merge(out, r)
		}
	}
	return out
}
