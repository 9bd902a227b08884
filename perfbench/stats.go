package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// record is one request the load generator issued. Offsets are from the
// start of the measured window. For a closed loop due == sent; for an open
// loop due is the schedule slot, so a stall that delays later sends shows up
// in their latency instead of silently thinning the load.
type record struct {
	kind     string
	due      time.Duration
	sent     time.Duration
	done     time.Duration
	deadline time.Duration
	status   int
	err      error
	body     []byte // response body
}

// latency is measured from when the request was due.
func (r record) latency() time.Duration { return r.done - r.due }

// lag is how late the generator sent the request.
func (r record) lag() time.Duration { return r.sent - r.due }

// failed reports a transport error, a non-2xx status, or a 2xx that arrived
// after the request's deadline: a late answer is not a success.
func (r record) failed() bool {
	return r.err != nil || r.status < 200 || r.status > 299 || r.done-r.sent > r.deadline
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of vals:
// the smallest value with at least p% of the samples at or below it.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailSupported reports whether n samples support naming percentile p: at
// least ten samples must lie beyond it (so p99 needs 1000 samples, p90 100).
// p = 100 names the maximum and is always supported.
func tailSupported(n int, p float64) bool {
	if p >= 100 {
		return n > 0
	}
	return float64(n)*(100-p)/100 >= 10-1e-9
}

// millis converts durations to float64 milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencies returns the latencies (ms) of the successful records whose
// kind is in kinds, in the order the requests were due.
func latencies(recs []record, kinds ...string) []float64 {
	var rs []record
	for _, r := range recs {
		if slices.Contains(kinds, r.kind) && !r.failed() {
			rs = append(rs, r)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].due < rs[j].due })
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.latency())
	}
	return out
}

// minGroups is how many whole groups groupedQuantile needs.
const minGroups = 3

// groupedQuantile splits vals (in time order) into consecutive groups of
// size samples, takes the p-th percentile of each group, and returns the
// median of those. A contention burst on a shared machine that covers
// fewer than half of the groups does not move it, where it would move a
// percentile over all samples. With fewer than minGroups whole groups it
// falls back to the percentile over all samples.
func groupedQuantile(vals []float64, size int, p float64) float64 {
	n := len(vals) / size
	if n < minGroups {
		return quantile(vals, p)
	}
	per := make([]float64, n)
	for g := range per {
		per[g] = quantile(vals[g*size:(g+1)*size], p)
	}
	return median(per)
}

func median(vals []float64) float64 { return quantile(vals, 50) }

// medianSeconds is the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return median(millis(ds)) / 1000
}
