package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers (nothing inside the program under test is instrumented). Spans of
// one episode, case or round share ID; Parent is the index of the span that
// caused it, -1 for a root.
type span struct {
	Name   string
	ID     int64
	Parent int
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and never reads the clock, which is what the untraced window uses.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[idx].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were observed elsewhere (for example
// timestamps read from the daemon's event log).
func (t *tracer) add(name string, parent int, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// setBounds rewrites a span's interval once its true boundaries are known
// (a span opened as a parent for hook spans before the daemon's log told
// when it really began).
func (t *tracer) setBounds(idx int, start, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].Start = start.Sub(t.origin)
	t.spans[idx].End = end.Sub(t.origin)
	t.mu.Unlock()
}

// all returns a copy of the spans in recording order, so parent indices
// stay valid; unfinished spans keep End < 0 and the reducers skip them.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the length in seconds of every finished span called
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// selfTimes returns, for every finished span called name, its duration minus
// the part of that interval its direct children cover (children may overlap
// each other; the union is subtracted once).
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := time.Duration(0)
		at := s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out = append(out, (s.End - s.Start - covered).Seconds())
	}
	return out
}

// nested reports whether every finished span called child lies inside the
// interval of its parent span; the acceptance check that the parts of an
// episode sum to the whole.
func nested(spans []span, child string) bool {
	for _, s := range spans {
		if s.Name != child || s.End < 0 {
			continue
		}
		if s.Parent < 0 {
			return false
		}
		p := spans[s.Parent]
		if p.End < 0 || s.Start < p.Start || s.End > p.End {
			return false
		}
	}
	return true
}

// writeChromeTrace writes the spans in Chrome trace-event format (load it in
// chrome://tracing or https://ui.perfetto.dev). Each span is a complete
// ("X") event; the lane (tid) is the depth of the span in its tree so
// nested calls stack visually.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	depth := make([]int, len(spans))
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  depth[i],
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
