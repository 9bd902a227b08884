package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The server can answer 200 after a request's deadline has passed; the
// benchmark must count that answer as failed, like a 504 or a transport
// error.
func TestLateSuccessCountsAsFailed(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/slow":
			time.Sleep(60 * time.Millisecond)
			w.Write([]byte(`{"stats":{"elapsed_ms":60}}`))
		case "/timeout":
			w.WriteHeader(http.StatusGatewayTimeout)
		default:
			w.Write([]byte(`{"stats":{"elapsed_ms":1.5}}`))
		}
	}))
	defer stub.Close()
	c := newClient(stub.URL, 2)
	defer c.close()
	ctx := context.Background()
	start := time.Now()
	deadline := 20 * time.Millisecond
	for _, tc := range []struct {
		path     string
		failed   bool
		serverMS float64
	}{
		{"/slow", true, 60},
		{"/timeout", true, 0},
		{"/fast", false, 1.5},
	} {
		rec := c.timed(ctx, request{kind: "search", path: tc.path, deadline: deadline}, start, -1)
		if rec.failed() != tc.failed {
			t.Errorf("%s: failed = %v (status %d, took %v, deadline %v), want %v",
				tc.path, rec.failed(), rec.status, rec.done-rec.sent, deadline, tc.failed)
		}
		if got := serverMillis(rec.body); got != tc.serverMS {
			t.Errorf("%s: server elapsed %v, want %v", tc.path, got, tc.serverMS)
		}
		if rec.due != rec.sent {
			t.Errorf("%s: closed-loop due %v != sent %v", tc.path, rec.due, rec.sent)
		}
	}
	stub.Close()
	rec := c.timed(ctx, request{kind: "search", path: "/fast", deadline: time.Second}, start, -1)
	if rec.err == nil || !rec.failed() {
		t.Errorf("transport error not counted as failed: %+v", rec)
	}
}

// An open loop over a stub with one slow response: later requests wait
// behind it, and their latency, measured from the due time, shows the wait.
func TestOpenLoopCountsQueueingFromDueTime(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(50 * time.Millisecond)
		}
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()
	c := newClient(stub.URL, 1)
	defer c.close()
	sched := []request{{kind: "a", path: "/slow", deadline: time.Second}}
	for i := 0; i < 4; i++ {
		sched = append(sched, request{kind: "a", path: "/fast", deadline: time.Second})
	}
	var col collector
	// 100 requests/s: due at 0, 10, 20, 30, 40ms; one worker.
	openLoop(context.Background(), c, &col, time.Now(), sched, 100, 1, func(int) bool { return false }, nil)
	if len(col.recs) != len(sched) {
		t.Fatalf("%d records, want %d", len(col.recs), len(sched))
	}
	second := col.recs[1]
	if second.due != 10*time.Millisecond {
		t.Errorf("second request due %v, want 10ms", second.due)
	}
	if second.lag() < 30*time.Millisecond {
		t.Errorf("second request lag %v, want >= 30ms behind the slow one", second.lag())
	}
	if second.latency() < second.lag() {
		t.Errorf("latency %v shorter than lag %v", second.latency(), second.lag())
	}
}
