package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// kept is a response held back for the output checks.
type kept struct {
	req  request
	body []byte
}

// collector gathers records and kept responses from the generator's
// goroutines.
type collector struct {
	mu   sync.Mutex
	recs []record
	kept []kept
}

func (c *collector) add(rec record, req request, keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
	if keep && !rec.failed() {
		c.kept = append(c.kept, kept{req, rec.body})
	}
}

// closedLoop runs clients that each send their next request only after the
// previous one completed. next(client, i) yields client's i-th request and
// whether to keep its response for checking; more(i, elapsed) decides
// whether client may send request i.
func closedLoop(ctx context.Context, cl *client, col *collector, start time.Time, clients int,
	next func(client, i int) (request, bool), more func(i int, elapsed time.Duration) bool) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(i, time.Since(start)) && ctx.Err() == nil; i++ {
				req, keep := next(c, i)
				rec := cl.timed(ctx, req, start, -1)
				col.add(rec, req, keep)
			}
		}(c)
	}
	wg.Wait()
}

// openLoop sends sched[i] when it is due (i/rate seconds after start),
// whether or not earlier requests have completed, over at most workers
// concurrent connections. When every worker is busy the next request waits;
// its latency still runs from its due time, and the wait shows as lag.
// keep(i) selects responses to hold for checking; done(i, rec) is
// called after request i completes, before the worker takes another.
func openLoop(ctx context.Context, cl *client, col *collector, start time.Time, sched []request, rate float64, workers int,
	keep func(i int) bool, done func(i int, rec record)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				rec := cl.timed(ctx, sched[i], start, due)
				col.add(rec, sched[i], keep(i))
				if done != nil {
					done(i, rec)
				}
			}
		}()
	}
	wg.Wait()
}
