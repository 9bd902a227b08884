package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client talks to one wfsimd over loopback with at most maxConns
// connections: the load generator never opens more connections than the
// machine has cores.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call issues one request and returns its status and body.
func (c *client) call(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(ctx context.Context, path string, v any) (int, error) {
	status, body, err := c.call(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return status, nil
	}
	if err := json.Unmarshal(body, v); err != nil {
		return status, fmt.Errorf("decode %s: %w", path, err)
	}
	return status, nil
}

// request is one prepared call of the workload.
type request struct {
	kind     string
	path     string
	ctype    string
	body     []byte
	deadline time.Duration
}

// serverMillis is the stats.elapsed_ms a read response reports, or 0. It
// is decoded after the measured window, not while the generator runs.
func serverMillis(body []byte) float64 {
	var st struct {
		Stats *struct {
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"stats"`
	}
	if json.Unmarshal(body, &st) != nil || st.Stats == nil {
		return 0
	}
	return st.Stats.ElapsedMS
}

// timed issues req and fills in a record. start is the window start; due is
// the request's schedule slot, or negative in a closed loop, where a
// request is due when it is sent.
func (c *client) timed(ctx context.Context, req request, start time.Time, due time.Duration) record {
	rec := record{kind: req.kind, due: due, deadline: req.deadline}
	rec.sent = time.Since(start)
	if due < 0 {
		rec.due = rec.sent
	}
	status, body, err := c.call(ctx, http.MethodPost, req.path, req.ctype, req.body)
	rec.done = time.Since(start)
	rec.status, rec.err, rec.body = status, err, body
	return rec
}
