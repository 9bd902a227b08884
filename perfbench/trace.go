package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// traced run around the calls the benchmark itself makes. Spans of one
// request share a request ID; Parent is the index of the enclosing span in
// the tracer's list, or -1 for a root.
type span struct {
	Name    string        `json:"name"`
	Request int           `json:"request"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end. A nil
// tracer records nothing, which is how the untraced pass of the same replay
// runs the identical code path. A tracer is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name string, request, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].End = time.Since(t.t0)
}

// do wraps fn in a span.
func (t *tracer) do(name string, request, parent int, fn func(h int)) {
	h := t.begin(name, request, parent)
	fn(h)
	t.end(h)
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// selfTime is the span's duration minus the part of its interval covered
// by the union of its children's intervals (clipped to the parent), so
// overlapping or parallel children are not subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// layers returns per-name totals and self times, sorted by self time.
func (t *tracer) layers() []layerTime {
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range t.spans {
		l := agg[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			agg[s.Name] = l
		}
		l.Count++
		l.Total += ms(s.End - s.Start)
		l.Self += ms(selfTime(interval{s.Start, s.End}, children[i]))
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// byLayer sums self time per module: a span named "index.Index.Candidates"
// belongs to layer "index", "op.search" to the benchmark's own glue.
func byLayer(ls []layerTime) map[string]float64 {
	out := map[string]float64{}
	for _, l := range ls {
		layer, _, _ := strings.Cut(l.Name, ".")
		out[layer] += l.Self
	}
	return out
}

// write dumps every span and the per-name aggregates as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans  []span      `json:"spans"`
		Layers []layerTime `json:"layers"`
	}{t.spans, t.layers()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
