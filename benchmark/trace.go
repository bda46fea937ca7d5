package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public surface, recorded from the
// benchmark's own files. Spans of one operation (one query, one refresh
// cycle) share Op; Parent is the span that caused this one (0: none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	Count  int
	SelfMS float64   // Σ self time
	self   []float64 // per-span self time in µs, ascending
}

func (l layerTime) selfP50us() float64 { return quantile(l.self, 0.5) }

// byLayer folds the spans into per-name self times: a span's duration minus
// the part of it its child spans cover (children of one span run one after
// another in this benchmark, so the sum of their durations is that part).
func (t *tracer) byLayer() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		self := float64(s.End-s.Start-child[s.ID]) / 1e3
		l := out[s.Name]
		l.Count++
		l.SelfMS += self / 1e3
		l.self = append(l.self, self)
		out[s.Name] = l
	}
	for name, l := range out {
		sort.Float64s(l.self)
		out[name] = l
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
