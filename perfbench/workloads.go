package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"time"
)

// workload is one traffic mix. main and second name the request kinds
// whose latencies the end-to-end metrics report.
type workload struct {
	name   string
	main   []string
	second string
	warmup func(p *plan) []request
	drive  func(ctx context.Context, lb *loopback, start time.Time)
}

var workloads = []*workload{
	{
		name:   "query-cold",
		main:   []string{"search", "search-inline"},
		second: "search-inline",
		warmup: func(p *plan) []request {
			return []request{searchIDRequest(p.ids[0]), searchInlineRequest(p.novel[0])}
		},
		drive: driveCold,
	},
	{
		name:   "ingest-mixed",
		main:   []string{"search"},
		second: "batch",
		warmup: func(p *plan) []request { return []request{searchIDRequest(p.stable[0])} },
		drive:  driveIngest,
	},
	{
		name:   "curate",
		main:   []string{"dup"},
		second: "cluster",
		warmup: func(p *plan) []request { return nil },
		drive:  driveCurate,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clientRand is client c's request stream: the same seed gives every
// client the same sequence of requests on every run.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
}

func driveCold(ctx context.Context, lb *loopback, start time.Time) {
	window := lb.cfg.window()
	rngs := []*rand.Rand{clientRand(lb.cfg.seed, 0), clientRand(lb.cfg.seed, 1)}
	closedLoop(ctx, lb.c, &lb.col, start, len(rngs),
		func(c, i int) (request, bool) {
			r := rngs[c]
			keep := i%6 == 0
			if r.Intn(2) == 0 {
				return searchInlineRequest(lb.p.novel[r.Intn(len(lb.p.novel))]), keep
			}
			return searchIDRequest(lb.p.ids[r.Intn(len(lb.p.ids))]), keep
		},
		func(i int, elapsed time.Duration) bool { return elapsed < window })
}

// driveIngest runs one open-loop writer and one closed-loop reader. The
// writer has a single connection, so batches commit in schedule order and
// a batch may remove what an earlier one added.
func driveIngest(ctx context.Context, lb *loopback, start time.Time) {
	window := lb.cfg.window()
	n := min(len(lb.p.batches), int(window.Seconds()*batchRate))
	sched := make([]request, n)
	for i := range sched {
		sched[i] = batchRequest(lb.p.batches[i])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(ctx, lb.c, &lb.col, start, sched, batchRate, 1,
			func(int) bool { return false },
			func(i int, rec record) {
				var resp struct {
					Generation uint64 `json:"generation"`
				}
				if rec.err == nil && rec.status == 200 && json.Unmarshal(rec.body, &resp) == nil {
					lb.acks = append(lb.acks, ack{batch: i, gen: resp.Generation})
				}
			})
	}()
	r := clientRand(lb.cfg.seed, 0)
	closedLoop(ctx, lb.c, &lb.col, start, 1,
		func(_, i int) (request, bool) {
			return searchIDRequest(lb.p.stable[r.Intn(len(lb.p.stable))]), i%4 == 0
		},
		func(i int, elapsed time.Duration) bool { return elapsed < window })
	<-done
}

// driveCurate alternates Duplicates and Cluster in whole rounds, so every
// run measures as many of one as of the other.
func driveCurate(ctx context.Context, lb *loopback, start time.Time) {
	window := lb.cfg.window()
	closedLoop(ctx, lb.c, &lb.col, start, 1,
		func(_, i int) (request, bool) {
			if i%2 == 0 {
				return dupRequest(), true
			}
			return clusterRequest(), true
		},
		func(i int, elapsed time.Duration) bool { return i%2 == 1 || elapsed < window })
}
