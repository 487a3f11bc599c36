package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one session or inference share
// a Trace id; Parent is the span that caused this one (0 for roots).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Trace   string `json:"trace,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id and the function that ends it.
func (t *tracer) begin(name, trace string, parent int64) (int64, func()) {
	if !t.on {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Trace: trace, StartNs: start, EndNs: end})
		t.mu.Unlock()
	}
}

// SpanTotals aggregates the spans of one name.
type SpanTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// totals sums duration and self time per span name. A span's self time
// is its duration minus the part of its interval its children cover.
func (t *tracer) totals() map[string]SpanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]SpanTotals)
	for _, s := range t.spans {
		dur := s.EndNs - s.StartNs
		agg := out[s.Name]
		agg.Count++
		agg.TotalS += float64(dur) / 1e9
		agg.SelfS += float64(dur-covered(s, children[s.ID])) / 1e9
		out[s.Name] = agg
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return sum + curHi - curLo
}
