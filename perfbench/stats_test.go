package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	vals := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		vals = append(vals, float64(i)) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}, {1, 1},
	} {
		if got := quantile(vals, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples is not NaN")
	}
	if vals[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, {1000, 99, true},
		{99, 90, false}, {100, 90, true},
		{19, 50, false}, {20, 50, true},
		{1, 100, true}, {0, 100, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// Due at 100ms, sent 30ms late, answered 20ms after sending.
	r := record{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 150 * time.Millisecond, status: 200, deadline: time.Second}
	if got := r.latency(); got != 50*time.Millisecond {
		t.Errorf("latency = %v, want 50ms (from due, not from send)", got)
	}
	if got := r.lag(); got != 30*time.Millisecond {
		t.Errorf("lag = %v, want 30ms", got)
	}
	// The lag percentile over a schedule where one send in a hundred is late.
	var recs []record
	for i := 0; i < 100; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		sent := due
		if i == 42 {
			sent += 25 * time.Millisecond
		}
		recs = append(recs, record{kind: "a", due: due, sent: sent, done: sent + time.Millisecond, status: 200, deadline: time.Second})
	}
	var lags []time.Duration
	for _, r := range recs {
		lags = append(lags, r.lag())
	}
	if got := quantile(millis(lags), 99); got != 0 {
		t.Errorf("lag p99 with one late send in 100 = %v, want 0", got)
	}
	if got := quantile(millis(lags), 100); got != 25 {
		t.Errorf("lag max = %v, want 25", got)
	}
	if got := latencies(recs, "a"); len(got) != 100 || got[42] != 26 {
		t.Errorf("latency of the late request = %v, want 26ms", got[42])
	}
}

func TestClosedLoopDueIsSendTime(t *testing.T) {
	recs := []record{
		{kind: "search", due: 5, sent: 5, done: 15, status: 200, deadline: time.Second},
		{kind: "search", due: 15, sent: 15, done: 40, status: 500, deadline: time.Second},
		{kind: "compare", due: 40, sent: 40, done: 41, status: 200, deadline: time.Second},
	}
	if got := latencies(recs, "search"); len(got) != 1 {
		t.Errorf("latencies kept %d search samples, want 1 (failures excluded)", len(got))
	}
	if got := recs[0].lag(); got != 0 {
		t.Errorf("closed-loop lag = %v, want 0", got)
	}
}

func TestGroupedQuantileIgnoresABurst(t *testing.T) {
	// 100 samples at 10ms with a burst of 30 consecutive samples at 50ms.
	var vals []float64
	for i := 0; i < 100; i++ {
		v := 10.0
		if i >= 40 && i < 70 {
			v = 50
		}
		vals = append(vals, v)
	}
	if got := groupedQuantile(vals, 20, 50); got != 10 {
		t.Errorf("grouped median = %v, want 10 (burst covers under half the groups)", got)
	}
	if got := quantile(vals, 90); got != 50 {
		t.Errorf("plain p90 = %v, want 50", got)
	}
	if got := groupedQuantile(vals[:50], 20, 50); got != quantile(vals[:50], 50) {
		t.Errorf("with fewer than %d groups the grouped quantile must fall back to the plain one", minGroups)
	}
}
