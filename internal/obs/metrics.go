package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"

	"regcache/internal/stats"
)

// Registry is a unified metrics registry: named counters, gauges,
// stats.Histogram-backed histograms, and arbitrary snapshot funcs, all
// readable as one map and publishable as a single expvar variable (which
// the debug server serves at /debug/vars). Components register once and
// update their own variables; reads take a consistent snapshot.
type Registry struct {
	mu    sync.Mutex
	vars  map[string]func() any
	kinds map[string]metricKind    // how /metrics should render each name
	hists map[string]*HistogramVar // histogram vars, for bucketed exposition
}

// metricKind classifies a registered variable for Prometheus exposition.
// Func-registered variables are untyped; the typed constructors mark
// their kind so /metrics can emit the right family.
type metricKind uint8

const (
	kindUntyped metricKind = iota
	kindCounter
	kindGauge
	kindHistogram
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		vars:  make(map[string]func() any),
		kinds: make(map[string]metricKind),
		hists: make(map[string]*HistogramVar),
	}
}

// defaultRegistry is the process-wide registry the cmd binaries publish.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Func registers a snapshot function under name. The value it returns must
// be JSON-marshalable (expvar renders snapshots as JSON). Re-registering a
// name replaces the previous variable: per-run stats re-register on every
// run.
func (r *Registry) Func(name string, f func() any) {
	r.register(name, f, kindUntyped, nil)
}

func (r *Registry) register(name string, f func() any, k metricKind, h *HistogramVar) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vars[name] = f
	r.kinds[name] = k
	if h != nil {
		r.hists[name] = h
	} else {
		delete(r.hists, name)
	}
}

// Gauge registers a float-valued gauge computed at read time.
func (r *Registry) Gauge(name string, f func() float64) {
	r.register(name, func() any { return f() }, kindGauge, nil)
}

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a new counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, func() any { return c.Value() }, kindCounter, nil)
	return c
}

// CounterFunc registers a counter computed at read time, for components
// that already maintain their own monotonic counts. The function must be
// monotonically non-decreasing for the Prometheus exposition to be
// truthful.
func (r *Registry) CounterFunc(name string, f func() uint64) {
	r.register(name, func() any { return f() }, kindCounter, nil)
}

// HistogramVar is a concurrency-safe histogram registered in a Registry.
// Its snapshot reports n, mean, and tail percentiles.
type HistogramVar struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Add records one observation.
func (v *HistogramVar) Add(x int) {
	v.mu.Lock()
	v.h.Add(x)
	v.mu.Unlock()
}

// Snapshot returns the summary map rendered into the registry. On an
// empty histogram (n=0) every field is a plain zero — /metrics and
// /debug/vars scrape continuously from process start, so the pre-first-
// observation snapshot must be valid JSON numbers, never sentinels.
func (v *HistogramVar) Snapshot() map[string]any {
	v.mu.Lock()
	defer v.mu.Unlock()
	return map[string]any{
		"n":    v.h.N(),
		"mean": v.h.Mean(),
		"p50":  v.h.Median(),
		"p90":  v.h.Percentile(0.9),
		"p99":  v.h.Percentile(0.99),
		"max":  v.h.Max(),
	}
}

// Cumulative returns, for each upper bound in bounds (ascending), the
// count of observations <= that bound, plus the total sum and count —
// the Prometheus histogram exposition form.
func (v *HistogramVar) Cumulative(bounds []int) (cum []uint64, sum float64, n uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cum = make([]uint64, len(bounds))
	for i, b := range bounds {
		cum[i] = v.h.CumulativeLE(b)
	}
	return cum, v.h.Sum(), v.h.N()
}

// Histogram registers and returns a new histogram under name.
func (r *Registry) Histogram(name string) *HistogramVar {
	v := &HistogramVar{h: stats.NewHistogram()}
	r.register(name, func() any { return v.Snapshot() }, kindHistogram, v)
	return v
}

// Names returns the registered variable names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.vars))
	for n := range r.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot evaluates every registered variable into one map.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fs := make(map[string]func() any, len(r.vars))
	for n, f := range r.vars {
		fs[n] = f
	}
	r.mu.Unlock()
	out := make(map[string]any, len(fs))
	for n, f := range fs {
		out[n] = f()
	}
	return out
}

var publishMu sync.Mutex

// Publish exposes the registry as a single expvar variable (shown at
// /debug/vars). Publishing the same name twice is a no-op, so multiple
// components may call it defensively.
func (r *Registry) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
