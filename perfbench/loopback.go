package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/pkg/wfsim"
)

// boots and restarts are how many times set-up and restart are timed per
// run; the median is reported. Boots are spaced bootGap apart so that one
// burst of contention on a shared machine does not slow all of them.
const (
	boots    = 7
	restarts = 5
	bootGap  = 250 * time.Millisecond
)

// loopback is the untraced run: wfsimd as a child process on loopback,
// driven by this process.
type loopback struct {
	cfg     *config
	w       *workload
	p       *plan
	dir     string
	args    []string // the deployment's wfsimd flags (without -addr)
	d       *daemon
	c       *client
	gen0    uint64
	col     collector
	elapsed time.Duration
	acks    []ack
	setup   []time.Duration
	restart []time.Duration
	rss     float64
	stats   serverStats
	errs    []string
}

// ack is an acknowledged mutation batch.
type ack struct {
	batch int
	gen   uint64
}

// serverStats is the part of GET /v1/stats the report uses.
type serverStats struct {
	Generation uint64           `json:"generation"`
	Workflows  int              `json:"workflows"`
	Cache      wfsim.CacheStats `json:"cache"`
	Index      *struct {
		Dead        int `json:"dead"`
		Compactions int `json:"compactions"`
	} `json:"index"`
	Storage *struct {
		Compactions int `json:"compactions"`
	} `json:"storage"`
}

func (lb *loopback) failf(format string, args ...any) {
	lb.errs = append(lb.errs, fmt.Sprintf(format, args...))
}

// deploymentArgs is the stated deployment: durable, indexed, cached, one
// shard, default measure, fsync on, default deadlines.
func deploymentArgs(w *workload, dataDir, corpusPath string) []string {
	args := []string{"-data", dataDir}
	if corpusPath != "" {
		args = append(args, "-corpus", corpusPath)
	}
	args = append(args, "-index", "-min-shared", "1", "-cache", "65536")
	if w.name == "ingest-mixed" {
		args = append(args, "-compact-records", strconv.Itoa(compactRecords))
	}
	return args
}

func (lb *loopback) run(ctx context.Context) error {
	defer func() {
		lb.d.kill()
		if lb.c != nil {
			lb.c.close()
		}
	}()
	corpusPath := filepath.Join(lb.dir, "corpus.json")
	if err := os.WriteFile(corpusPath, lb.p.corpusJSON, 0o644); err != nil {
		return err
	}
	// Set-up: spawn to healthy on a fresh data directory, timed boots times.
	for i := 0; i < boots; i++ {
		data := filepath.Join(lb.dir, fmt.Sprintf("data%d", i))
		lb.args = deploymentArgs(lb.w, data, corpusPath)
		d, took, err := launchQuiet(ctx, lb.cfg.bin, lb.args, lb.cfg.procs)
		if err != nil {
			return err
		}
		lb.setup = append(lb.setup, took)
		if i < boots-1 {
			d.kill()
			time.Sleep(bootGap)
			if err := os.RemoveAll(data); err != nil {
				return err
			}
			continue
		}
		lb.d = d
	}
	dataDir := filepath.Join(lb.dir, fmt.Sprintf("data%d", boots-1))
	lb.c = newClient(lb.d.base, lb.cfg.procs)
	var hz struct {
		Generation uint64 `json:"generation"`
	}
	if _, err := lb.c.getJSON(ctx, "/healthz", &hz); err != nil {
		return err
	}
	lb.gen0 = hz.Generation

	for _, req := range lb.w.warmup(lb.p) {
		if _, _, err := lb.c.call(ctx, "POST", req.path, req.ctype, req.body); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	start := time.Now()
	lb.w.drive(ctx, lb, start)
	for _, r := range lb.col.recs {
		lb.elapsed = max(lb.elapsed, r.done)
	}
	rss, err := lb.d.peakRSSMiB()
	if err != nil {
		return err
	}
	lb.rss = rss
	if _, err := lb.c.getJSON(ctx, "/v1/stats", &lb.stats); err != nil {
		return err
	}

	ref, want, err := lb.check(ctx)
	if err != nil {
		return err
	}
	// Crash and recover: SIGKILL, restart on the data directory, timed
	// restarts times; the first recovery is checked against the op log.
	for i := 0; i < restarts; i++ {
		lb.d.kill()
		lb.c.close()
		time.Sleep(bootGap)
		d, took, err := launchQuiet(ctx, lb.cfg.bin, deploymentArgs(lb.w, dataDir, ""), lb.cfg.procs)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		lb.d, lb.restart = d, append(lb.restart, took)
		lb.c = newClient(d.base, lb.cfg.procs)
		if i == 0 {
			lb.checkRecovered(ctx, ref, want)
		}
	}
	return nil
}

// launchQuiet is launch after a garbage collection of this process, so
// that the collector's background work, paid for by generating inputs or
// checking outputs, does not run on the cores while a boot is timed.
func launchQuiet(ctx context.Context, bin string, args []string, procs int) (*daemon, time.Duration, error) {
	runtime.GC()
	return launch(ctx, bin, args, procs)
}

// check verifies the kept responses against the in-process reference and,
// for ingest-mixed, the served state against the acknowledged op log. It
// returns the reference advanced to the final state, and that state.
func (lb *loopback) check(ctx context.Context) (*wfsim.Engine, *corpusState, error) {
	ref, err := newReference(lb.p.corpusJSON)
	if err != nil {
		return nil, nil, err
	}
	want := &corpusState{gen: lb.gen0, content: map[string][]byte{}}
	for id, js := range lb.p.baseJS {
		want.content[id] = js
	}
	if lb.w.name == "curate" {
		cur, err := newCurateReference(ctx, ref)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range lb.col.kept {
			if err := cur.check(k.req.kind, k.body); err != nil {
				lb.failf("%v", err)
			}
		}
		return ref, want, nil
	}

	// Reads are checked at the generation they observed: the reference
	// replays the acknowledged batches up to it.
	type atGen struct {
		k   kept
		gen uint64
	}
	var reads []atGen
	for _, k := range lb.col.kept {
		var st searchResp
		if err := json.Unmarshal(k.body, &st); err != nil {
			lb.failf("decode %s response: %v", k.req.kind, err)
			continue
		}
		reads = append(reads, atGen{k, st.Stats.Generation})
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].gen < reads[j].gen })
	sort.Slice(lb.acks, func(i, j int) bool { return lb.acks[i].gen < lb.acks[j].gen })
	applied := 0
	advance := func(gen uint64) error {
		for want.gen < gen {
			if applied >= len(lb.acks) || lb.acks[applied].gen != want.gen+1 {
				return fmt.Errorf("served generation %d is not reachable from the acknowledged op log (at %d)", gen, want.gen)
			}
			b := lb.p.batches[lb.acks[applied].batch]
			muts, err := b.mutations()
			if err != nil {
				return err
			}
			if _, err := ref.Apply(ctx, muts...); err != nil {
				return fmt.Errorf("reference apply: %w", err)
			}
			for _, id := range b.removes {
				delete(want.content, id)
				want.removed = append(want.removed, id)
			}
			for id, js := range b.puts {
				want.content[id] = js
			}
			want.gen++
			applied++
		}
		return nil
	}
	memo := map[string][]wfsim.Result{}
	for _, r := range reads {
		if err := advance(r.gen); err != nil {
			lb.failf("%v", err)
			break
		}
		key := fmt.Sprintf("%d/%s", r.gen, r.k.req.body)
		res, ok := memo[key]
		if !ok {
			if res, err = referenceSearch(ctx, ref, r.k.req.body); err != nil {
				return nil, nil, err
			}
			memo[key] = res
		}
		var st searchResp
		_ = json.Unmarshal(r.k.body, &st) // decoded without error above
		if err := sameResults(st, res); err != nil {
			lb.failf("%s %s at generation %d: %v", r.k.req.kind, r.k.req.body[:min(60, len(r.k.req.body))], r.gen, err)
		}
	}
	if err := advance(lb.gen0 + uint64(len(lb.acks))); err != nil {
		lb.failf("%v", err)
	}
	if len(lb.acks) != countKind(lb.col.recs, "batch") {
		lb.failf("%d of %d batches acknowledged", len(lb.acks), countKind(lb.col.recs, "batch"))
	}
	if err := checkState(ctx, lb.c, want, lb.stateSample(want)); err != nil {
		lb.failf("before restart: %v", err)
	}
	return ref, want, nil
}

// checkRecovered verifies the restarted server against the op log and a
// few reads against the reference at the final state.
func (lb *loopback) checkRecovered(ctx context.Context, ref *wfsim.Engine, want *corpusState) {
	if err := checkState(ctx, lb.c, want, lb.stateSample(want)); err != nil {
		lb.failf("after restart: %v", err)
	}
	if lb.w.name == "curate" {
		return
	}
	rng := rand.New(rand.NewSource(lb.cfg.seed))
	ids := lb.p.ids
	if lb.p.stable != nil {
		ids = lb.p.stable
	}
	for i := 0; i < 3; i++ {
		req := searchIDRequest(ids[rng.Intn(len(ids))])
		status, body, err := lb.c.call(ctx, "POST", req.path, req.ctype, req.body)
		if err != nil || status != 200 {
			lb.failf("after restart: search status %d: %v", status, err)
			continue
		}
		var st searchResp
		if err := json.Unmarshal(body, &st); err != nil {
			lb.failf("after restart: %v", err)
			continue
		}
		res, err := referenceSearch(ctx, ref, req.body)
		if err != nil {
			lb.failf("after restart: reference: %v", err)
			continue
		}
		if err := sameResults(st, res); err != nil {
			lb.failf("after restart: search %s: %v", req.body, err)
		}
	}
}

// stateSample picks workflows to fetch: some removed, some added or
// replaced by the last batches, some never touched.
func (lb *loopback) stateSample(want *corpusState) []string {
	var out []string
	if n := len(want.removed); n > 0 {
		out = append(out, want.removed[max(0, n-4):]...)
	}
	if n := len(lb.acks); n > 0 {
		var puts []string
		for id := range lb.p.batches[lb.acks[n-1].batch].puts {
			puts = append(puts, id)
		}
		sort.Strings(puts)
		out = append(out, puts[:min(8, len(puts))]...)
	}
	for i := 0; i < 8; i++ {
		out = append(out, lb.p.ids[(i*len(lb.p.ids))/8])
	}
	return out
}

func countKind(recs []record, kind string) int {
	n := 0
	for _, r := range recs {
		if r.kind == kind {
			n++
		}
	}
	return n
}
