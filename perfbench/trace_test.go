package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []interval{{10 * ms, 20 * ms}, {30 * ms, 50 * ms}}, 70 * ms},
		{"overlapping counted once", []interval{{10 * ms, 40 * ms}, {30 * ms, 60 * ms}}, 50 * ms},
		{"nested counted once", []interval{{10 * ms, 60 * ms}, {20 * ms, 30 * ms}}, 50 * ms},
		{"clipped to parent", []interval{{-10 * ms, 10 * ms}, {90 * ms, 120 * ms}}, 80 * ms},
		{"outside parent", []interval{{100 * ms, 150 * ms}}, 100 * ms},
		{"covering", []interval{{0, 100 * ms}}, 0},
		{"unsorted", []interval{{50 * ms, 60 * ms}, {0, 10 * ms}, {5 * ms, 20 * ms}}, 70 * ms},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLayersAggregateSelfTimeByName(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op.search", Request: 1, Parent: -1, Start: 0, End: 10},
		{Name: "serve.Server.ServeHTTP", Request: 1, Parent: 0, Start: 1, End: 5},
		{Name: "wfsim.Engine.SearchID", Request: 1, Parent: 0, Start: 5, End: 9},
		{Name: "op.search", Request: 2, Parent: -1, Start: 10, End: 20},
		{Name: "serve.Server.ServeHTTP", Request: 2, Parent: 3, Start: 10, End: 20},
	}}
	got := byLayer(tr.layers())
	want := map[string]float64{"op": ms(2), "serve": ms(14), "wfsim": ms(4)}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x.Y", 0, -1, func(h int) {
		ran = true
		if h != -1 {
			t.Errorf("nil tracer handle = %d, want -1", h)
		}
	})
	if !ran {
		t.Error("nil tracer skipped the call")
	}
}
