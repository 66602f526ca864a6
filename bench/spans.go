package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the span that caused this
// one (-1 for a root).
type span struct {
	Name   string
	Layer  string
	Op     int
	Parent int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced repetitions run the same code and pay one nil
// check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index, to be passed to end and as
// the parent of its children.
func (t *tracer) begin(name, layer string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: op, Parent: parent,
		Start: time.Since(t.origin), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].End = time.Since(t.origin)
	t.mu.Unlock()
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := time.Duration(0), s.Start
		for _, c := range ivs {
			a, b := max(c.a, edge), min(c.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[i] -= covered
	}
	return self
}

// layerSelf sums self time by layer over spans[from:].
func layerSelf(spans []span, from int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		if i >= from {
			out[spans[i].Layer] += d
		}
	}
	return out
}

// writeChromeTrace writes the spans in Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one track
// per operation, the run's stamp as metadata.
func writeChromeTrace(path string, spans []span, stamp map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: 1, Tid: s.Op, Args: map[string]any{"id": i, "parent": s.Parent, "self_us": us(self[i])}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "metadata": stamp})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
