// Package obs is the zero-dependency observability core: an
// allocation-free metrics registry (atomic counters and gauges, labeled
// families, HDR latency histograms), a Prometheus text-format exposition
// handler, and a log/slog-based structured logging setup shared by every
// binary.
//
// The registry is built for instrumented hot paths: a Counter or Gauge is
// a single atomic word, Inc/Add/Set never allocate and never take a lock,
// and labeled series are resolved once at registration time so the hot
// path holds a *Counter directly rather than looking labels up per event.
// The simulator kernel goes one step further and publishes nothing at all
// from its event loop — per-lane plain-int accumulators are flushed into
// these counters once per run — which is what keeps golden trace hashes
// and allocs/op untouched by instrumentation.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: one atomic word.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down: one atomic word.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Ratchet raises the gauge to v if v exceeds the current value — peak
// tracking (e.g. deepest mailbox backlog ever observed).
func (g *Gauge) Ratchet(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a concurrency-safe wrapper around the mergeable HDR Hist:
// Observe is one short critical section (bucket increment, no
// allocation once the bucket slice has grown to cover the value range).
// Use it for latency series scraped as Prometheus histograms.
type Histogram struct {
	mu sync.Mutex
	h  Hist
}

// Observe records one value; negative values are ignored.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Add(v)
	h.mu.Unlock()
}

// Snapshot returns a private copy of the underlying Hist.
func (h *Histogram) Snapshot() Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := h.h
	cp.counts = append([]uint32(nil), h.h.counts...)
	return cp
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a family. Exactly one of c/g/h/f is
// set, matching the family kind.
type series struct {
	labels string // rendered `k1="v1",k2="v2"`, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	f      func() float64
}

// family is one named metric with its help text and series set.
type family struct {
	name string
	help string
	kind kind
	keys []string

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order; sorted at exposition
}

// get interns the series for the given label values, creating it on
// first use. Registration-time path — the hot path holds the result.
func (f *family) get(values ...string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %s has %d label keys, got %d values",
			f.name, len(f.keys), len(values)))
	}
	var b strings.Builder
	for i, k := range f.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	labels := b.String()
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labels]; ok {
		return s
	}
	s := &series{labels: labels}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{}
	}
	f.series[labels] = s
	f.order = append(f.order, labels)
	return s
}

// Registry holds metric families. The package-level Default registry is
// what the instrumented layers register into and what Handler exposes;
// tests build private registries.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// register returns the named family, creating it if absent. Re-registering
// an existing name with a different kind or label keys is a programmer
// error and panics at init time.
func (r *Registry) register(name, help string, k kind, keys ...string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, key := range keys {
		if !validName(key) {
			panic(fmt.Sprintf("obs: metric %s: invalid label key %q", name, key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, keys: keys,
		series: make(map[string]*series)}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).get().c
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).get().g
}

// GaugeFunc registers a derived gauge computed at scrape time — the
// vehicle for ratios over counters (msgs per border node, stall rate).
// Re-registering the same name keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGaugeFunc)
	s := f.get()
	f.mu.Lock()
	if s.f == nil {
		s.f = fn
	}
	f.mu.Unlock()
}

// Histogram registers (or returns) the unlabeled histogram name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram).get().h
}

// CounterVec is a counter family with label keys; resolve series with
// With at registration time, not per event.
type CounterVec struct{ fam *family }

// CounterVec registers (or returns) the labeled counter family name.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, kindCounter, keys...)}
}

// With returns the series for the given label values, interning it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.fam.get(values...).c }

// HistogramVec is a histogram family with label keys.
type HistogramVec struct{ fam *family }

// HistogramVec registers (or returns) the labeled histogram family name.
func (r *Registry) HistogramVec(name, help string, keys ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, kindHistogram, keys...)}
}

// With returns the series for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.fam.get(values...).h }

// Package-level shorthands on the Default registry.

// NewCounter registers an unlabeled counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers an unlabeled gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewGaugeFunc registers a derived gauge in the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { Default.GaugeFunc(name, help, fn) }

// NewHistogram registers an unlabeled histogram in the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.Histogram(name, help) }

// NewCounterVec registers a labeled counter family in the Default registry.
func NewCounterVec(name, help string, keys ...string) *CounterVec {
	return Default.CounterVec(name, help, keys...)
}

// NewHistogramVec registers a labeled histogram family in the Default registry.
func NewHistogramVec(name, help string, keys ...string) *HistogramVec {
	return Default.HistogramVec(name, help, keys...)
}

// validName enforces the Prometheus metric/label name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series in label order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.order))
	for _, labels := range f.order {
		out = append(out, f.series[labels])
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}
