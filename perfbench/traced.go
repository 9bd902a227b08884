package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/scorecache"
	"repro/internal/search"
	"repro/internal/symtab"
	"repro/pkg/wfsim"
	"repro/pkg/wfsim/serve"
)

// Replay sizes: a fixed prefix of each workload's request stream, plus a
// fixed tail of probeOps requests of every kind the workload does not send,
// so every workload's trace covers every layer.
const (
	replayCold = 40
	// replayIngest is more than compactRecords batches, each followed by
	// one reader search, so the replayed engines compact once.
	replayIngest = compactRecords + 10
	probeOps     = 10
	pairSample   = 100 // seeded workflow pairs per measure kernel probe
	pairCorpus   = 300 // workflows in the pair-matrix probes (curate: its whole corpus)
)

// kernelMeasures are the measures whose per-pair cost is probed.
var kernelMeasures = []string{"MS_ip_te_pll", "PS_ip_te_pll", "GE_ip_te_pll", "BW", "BT"}

// traced is the traced run: the workload's inputs replayed in-process, once
// without spans and once with, against two engines with the deployment's
// options — S behind serve.Server (driven through ServeHTTP with a
// recorder), D called directly — followed by probes of single layers.
type traced struct {
	cfg  *config
	w    *workload
	p    *plan
	dir  string
	lb   *loopback
	errs []string

	ops   []request
	tr    *tracer
	probe *plan // batches for workloads that send none
}

// pass holds one replay's engines and per-call measurements.
type pass struct {
	s, d    *wfsim.Engine
	dDir    string
	elapsed time.Duration // sum of request (root span) durations
	search  []time.Duration
	compare []time.Duration
	apply   []time.Duration
	batchOH []time.Duration // ServeHTTP minus ApplyVector, same batch
	// serveSelf is serve's own share of S's ServeHTTP calls: minus S's
	// engine time as the search response reports it, or minus D's call on
	// the same compare or batch. Duplicates and Cluster are left out: their
	// scans run for seconds, and two runs of one scan differ by far more
	// than serve's share of them.
	serveSelf time.Duration
	stats     []wfsim.Stats
	logBytes  int64 // D's log growth over batches that did not compact
	userByte  int64 // NDJSON bytes of those batches
}

func (t *traced) failf(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// engineOptions mirrors the wfsimd deployment flags.
func (t *traced) engineOptions(dataDir string, extra ...wfsim.StorageOption) []wfsim.Option {
	sopts := extra
	if t.w.name == "ingest-mixed" {
		sopts = append(sopts, wfsim.StorageCompaction(0, compactRecords))
	}
	return []wfsim.Option{wfsim.WithStorage(dataDir, sopts...), wfsim.WithIndex(1), wfsim.WithScoreCache(1 << 16)}
}

func (t *traced) newEngine(opts ...wfsim.Option) (*wfsim.Engine, error) {
	repo, err := wfsim.ReadRepository(bytes.NewReader(t.p.corpusJSON))
	if err != nil {
		return nil, err
	}
	return wfsim.New(repo, opts...)
}

// replayOps is the fixed request list both passes replay.
func (t *traced) replayOps() {
	p := t.p
	rng := clientRand(t.cfg.seed, 0)
	has := map[string]bool{}
	add := func(r request) {
		t.ops = append(t.ops, r)
		has[r.kind] = true
	}
	switch t.w.name {
	case "query-cold":
		for i := 0; i < replayCold; i++ {
			if rng.Intn(2) == 0 {
				add(searchInlineRequest(p.novel[rng.Intn(len(p.novel))]))
			} else {
				add(searchIDRequest(p.ids[rng.Intn(len(p.ids))]))
			}
		}
	case "ingest-mixed":
		for i := 0; i < replayIngest && i < len(p.batches); i++ {
			add(batchRequest(p.batches[i]))
			add(searchIDRequest(p.stable[rng.Intn(len(p.stable))]))
		}
	case "curate":
		add(dupRequest())
		add(clusterRequest())
	}
	prng := rand.New(rand.NewSource(t.cfg.seed + 3))
	// Probe reads name workflows every replayed batch leaves in place.
	ids := p.ids
	if p.stable != nil {
		ids = p.stable
	}
	if !has["search"] {
		for i := 0; i < probeOps; i++ {
			add(searchIDRequest(ids[prng.Intn(len(ids))]))
		}
	}
	if !has["compare"] {
		for i := 0; i < probeOps; i++ {
			a, b := prng.Intn(len(ids)), prng.Intn(len(ids)-1)
			if b >= a {
				b++
			}
			add(compareRequest(ids[a], ids[b]))
		}
	}
	if !has["batch"] {
		// Probe batches come last, after every replayed read.
		t.probe = &plan{ids: p.ids}
		if err := t.probe.planIngest(prng, t.cfg.seed, probeOps); err != nil {
			t.failf("plan probe batches: %v", err)
			return
		}
		for _, b := range t.probe.batches {
			add(batchRequest(b))
		}
	}
}

// batchOf returns the batch a replayed batch request carries.
func (t *traced) batchOf(body []byte) batch {
	for _, pl := range []*plan{t.p, t.probe} {
		if pl == nil {
			continue
		}
		for _, b := range pl.batches {
			if bytes.Equal(b.body, body) {
				return b
			}
		}
	}
	panic("replayed batch not found in its plan") // ops are built from the plans
}

func (t *traced) run(ctx context.Context) (map[string]metric, error) {
	t.replayOps()
	if len(t.errs) > 0 {
		return nil, fmt.Errorf("%s", t.errs[0])
	}
	// Untraced pass first, then the traced one over fresh engines.
	u, err := t.replay(ctx, "untraced", nil)
	if err != nil {
		return nil, err
	}
	t.tr = newTracer()
	tp, err := t.replay(ctx, "traced", t.tr)
	if err != nil {
		return nil, err
	}
	overhead := tp.elapsed.Seconds()/u.elapsed.Seconds() - 1
	u = nil
	runtime.GC()
	// The replay's spans only, before the probes add theirs: op.* (the
	// benchmark's glue around each request) and D's wfsim.Engine.* calls,
	// which hold everything below pkg/wfsim, since the program has no spans
	// of its own. For the same reason S's ServeHTTP span holds S's engine
	// work; serve's own time is tp.serveSelf.
	rl := byLayer(t.tr.layers())

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	t.fromLoopback(put)
	if err := t.fromReplay(ctx, tp, put); err != nil {
		return nil, err
	}
	if err := t.probes(ctx, tp, put); err != nil {
		return nil, err
	}
	put("trace.overhead_frac", overhead, "ratio")

	put("selftime.op_ms", rl["op"], "ms")
	put("selftime.serve_ms", ms(tp.serveSelf), "ms")
	put("selftime.wfsim_ms", rl["wfsim"], "ms")
	for _, l := range t.tr.layers() {
		fmt.Printf("# span %s n=%d total_ms=%.3f self_ms=%.3f\n", l.Name, l.Count, l.Total, l.Self)
	}
	traceDir := filepath.Join(t.cfg.work, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", t.w.name, t.cfg.seed))
	if err := t.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Println("# trace", path)
	return m, nil
}

// replay runs every op on S (through ServeHTTP) and on D (directly) and
// checks that both answer identically.
func (t *traced) replay(ctx context.Context, name string, tr *tracer) (*pass, error) {
	ps := &pass{dDir: filepath.Join(t.dir, name+"-d")}
	var err error
	if ps.s, err = t.newEngine(t.engineOptions(filepath.Join(t.dir, name+"-s"))...); err != nil {
		return nil, err
	}
	if ps.d, err = t.newEngine(t.engineOptions(ps.dDir)...); err != nil {
		return nil, err
	}
	srv := serve.New(ps.s, serve.Config{})
	for i, req := range t.ops {
		t0 := time.Now()
		root := tr.begin("op."+req.kind, i, -1)
		rec := httptest.NewRecorder()
		tr.do("serve.Server.ServeHTTP", i, root, func(int) {
			hr := httptest.NewRequest("POST", req.path, bytes.NewReader(req.body))
			hr.Header.Set("Content-Type", req.ctype)
			srv.ServeHTTP(rec, hr)
		})
		served := time.Since(t0)
		if rec.Code != 200 {
			t.failf("%s replay %s: status %d: %s", name, req.kind, rec.Code, rec.Body.String())
			tr.end(root)
			continue
		}
		if err := t.direct(ctx, ps, tr, i, root, req, rec.Body.Bytes(), served); err != nil {
			t.failf("%s replay %s: %v", name, req.kind, err)
		}
		tr.end(root)
		ps.elapsed += time.Since(t0)
	}
	return ps, nil
}

// direct runs req on D inside a span and compares with the served body.
func (t *traced) direct(ctx context.Context, ps *pass, tr *tracer, i, root int, req request, body []byte, served time.Duration) error {
	switch req.kind {
	case "search", "search-inline":
		var q struct {
			QueryID string          `json:"query_id"`
			Query   json.RawMessage `json:"query"`
		}
		if err := json.Unmarshal(req.body, &q); err != nil {
			return err
		}
		var (
			res []wfsim.Result
			st  wfsim.Stats
			err error
		)
		opts := wfsim.SearchOptions{K: searchK}
		var wf *wfsim.Workflow
		if q.QueryID == "" {
			if wf, err = decodeWorkflow(q.Query); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if wf == nil {
			tr.do("wfsim.Engine.SearchID", i, root, func(int) { res, st, err = ps.d.SearchID(ctx, q.QueryID, opts) })
		} else {
			tr.do("wfsim.Engine.Search", i, root, func(int) { res, st, err = ps.d.Search(ctx, wf, opts) })
		}
		ps.search = append(ps.search, time.Since(t0))
		if err != nil {
			return err
		}
		ps.stats = append(ps.stats, st)
		ps.serveSelf += served - time.Duration(serverMillis(body)*float64(time.Millisecond))
		var got searchResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return sameResults(got, res)
	case "compare":
		var ids compareIDs
		if err := json.Unmarshal(req.body, &ids); err != nil {
			return err
		}
		var want []wfsim.Score
		var err error
		t0 := time.Now()
		tr.do("wfsim.Engine.CompareIDs", i, root, func(int) { want, _, err = ps.d.CompareIDs(ctx, ids.A, ids.B) })
		took := time.Since(t0)
		ps.compare = append(ps.compare, took)
		ps.serveSelf += served - took
		if err != nil {
			return err
		}
		return sameScores(ids, body, want)
	case "batch":
		b := t.batchOf(req.body)
		muts, err := b.mutations()
		if err != nil {
			return err
		}
		before, _ := ps.d.StorageStats()
		t0 := time.Now()
		tr.do("wfsim.Engine.ApplyVector", i, root, func(int) { _, err = ps.d.ApplyVector(ctx, muts...) })
		took := time.Since(t0)
		if err != nil {
			return err
		}
		ps.apply = append(ps.apply, took)
		ps.batchOH = append(ps.batchOH, served-took)
		ps.serveSelf += served - took
		after, _ := ps.d.StorageStats()
		if after.Compactions == before.Compactions {
			ps.logBytes += after.LogBytes - before.LogBytes
			ps.userByte += int64(len(req.body))
		}
		if ps.s.Generation() != ps.d.Generation() {
			return fmt.Errorf("served generation %d, direct %d", ps.s.Generation(), ps.d.Generation())
		}
		return nil
	case "dup":
		var pairs []wfsim.Pair
		var err error
		tr.do("wfsim.Engine.Duplicates", i, root, func(int) {
			pairs, _, err = ps.d.Duplicates(ctx, dupThreshold, wfsim.DuplicateOptions{})
		})
		if err != nil {
			return err
		}
		return (&curateReference{pairs: pairs}).check("dup", body)
	case "cluster":
		var cr *wfsim.ClusterResult
		var err error
		minSim := clusterMinSim
		tr.do("wfsim.Engine.Cluster", i, root, func(int) {
			cr, err = ps.d.Cluster(ctx, wfsim.ClusterOptions{MinSimilarity: &minSim})
		})
		if err != nil {
			return err
		}
		return (&curateReference{clusters: cr.Clusters}).check("cluster", body)
	}
	return fmt.Errorf("unknown request kind %q", req.kind)
}

// fromLoopback takes the per-layer metrics that need the real socket or
// the whole run.
func (t *traced) fromLoopback(put func(string, float64, string)) {
	var oh, lags []float64
	var total, n float64
	for _, r := range t.lb.col.recs {
		lags = append(lags, ms(r.lag()))
		if r.failed() || !slices.Contains(t.w.main, r.kind) {
			continue
		}
		total += float64(len(r.body))
		n++
		if sm := serverMillis(r.body); sm > 0 {
			oh = append(oh, ms(r.done-r.sent)-sm)
		}
	}
	put("serve.search_overhead_ms", median(oh), "ms")
	put("serve.resp_bytes", total/math.Max(n, 1), "bytes")
	put("loadgen.lag_p99_ms", quantile(lags, 99), "ms")
	compactions := 0
	if st := t.lb.stats.Storage; st != nil {
		compactions = st.Compactions
	}
	put("storage.compactions", float64(compactions), "count")
}

// fromReplay takes the metrics of the traced replay's direct engine.
func (t *traced) fromReplay(ctx context.Context, ps *pass, put func(string, float64, string)) error {
	var scored, skipped, pruned int
	var elapsed time.Duration
	for _, st := range ps.stats {
		scored += st.Scored
		skipped += st.Skipped
		pruned += st.Pruned
		elapsed += st.Elapsed
	}
	ns := float64(max(1, len(ps.stats)))
	put("wfsim.search_ms", median(millis(ps.search)), "ms")
	put("wfsim.compare_ms", median(millis(ps.compare)), "ms")
	put("wfsim.apply_ms", median(millis(ps.apply)), "ms")
	put("serve.batch_overhead_ms", median(millis(ps.batchOH)), "ms")
	put("search.pair_us", float64(elapsed.Microseconds())/math.Max(float64(scored), 1), "us")
	put("search.scored", float64(scored)/ns, "count")
	put("search.skipped", float64(skipped)/ns, "count")
	put("index.candidate_frac", float64(scored)/math.Max(float64(scored+pruned), 1), "ratio")
	cs := ps.d.CacheStats()
	put("scorecache.hit_ratio", float64(cs.Hits)/math.Max(float64(cs.Hits+cs.Misses), 1), "ratio")
	put("scorecache.entries", float64(cs.Entries), "count")
	ist, _ := ps.d.IndexStats()
	put("index.dead", float64(ist.Dead), "count")
	put("index.compactions", float64(ist.Compactions), "count")
	put("storage.log_bytes_per_user_byte", float64(ps.logBytes)/math.Max(float64(ps.userByte), 1), "ratio")
	put("symtab.symbols", float64(len(ps.d.Repository().Symtab().Symbols())), "count")

	// Crash recovery of D's directory: D is abandoned, not closed.
	empty, err := wfsim.NewRepository()
	if err != nil {
		return err
	}
	var rec *wfsim.Engine
	t0 := time.Now()
	t.tr.do("wfsim.New", -1, -1, func(int) { rec, err = wfsim.New(empty, t.engineOptions(ps.dDir)...) })
	took := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recover replay directory: %w", err)
	}
	rst, _ := rec.StorageStats()
	put("storage.replay_records_per_s", float64(rst.Recovery.ReplayedRecords)/took.Seconds(), "1/s")
	if rec.Generation() != ps.d.Generation() || rec.Size() != ps.d.Size() {
		t.failf("recovered generation %d size %d, want %d size %d", rec.Generation(), rec.Size(), ps.d.Generation(), ps.d.Size())
	}
	return nil
}

// probes times single layers' public functions on the workload's corpus.
func (t *traced) probes(ctx context.Context, ps *pass, put func(string, float64, string)) error {
	tr := t.tr
	d := ps.d
	snap := d.Snapshot()
	wfs := snap.Workflows()
	rng := rand.New(rand.NewSource(t.cfg.seed + 4))
	req := 1 << 20 // request IDs of probes, apart from the replay's

	// timeEach calls fn n times inside one span named after the layer call
	// and returns the mean time per call.
	timeEach := func(call string, n int, fn func(i int)) time.Duration {
		root := tr.begin("probe."+call, req, -1)
		h := tr.begin(call, req, root)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		took := time.Since(t0)
		tr.end(h)
		tr.end(root)
		req++
		return took / time.Duration(n)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	put("corpus.snapshot_us", us(timeEach("corpus.Repository.Snapshot", 1000, func(int) { d.Repository().Snapshot() })), "us")
	put("wfsim.parse_measure_us", us(timeEach("wfsim.Engine.ParseMeasure", 200, func(int) {
		if _, err := d.ParseMeasure(""); err != nil {
			panic(err) // the default measure always parses
		}
	})), "us")

	// Measure kernels on a fixed seeded pair sample.
	pairs := make([][2]int, pairSample)
	for i := range pairs {
		a, b := rng.Intn(len(wfs)), rng.Intn(len(wfs)-1)
		if b >= a {
			b++
		}
		pairs[i] = [2]int{a, b}
	}
	for _, name := range kernelMeasures {
		m, err := d.ParseMeasure(name)
		if err != nil {
			return err
		}
		failed := 0
		root := tr.begin("probe.measures", req, -1)
		t0 := time.Now()
		for _, pr := range pairs {
			h := tr.begin("measures."+name+".Compare", req, root)
			if _, err := m.Compare(wfs[pr[0]], wfs[pr[1]]); err != nil {
				failed++
			}
			tr.end(h)
		}
		took := time.Since(t0)
		tr.end(root)
		req++
		put("measures."+name+".pair_us", us(took)/float64(len(pairs)), "us")
		if name == "GE_ip_te_pll" {
			put("ged.skipped_frac", float64(failed)/float64(len(pairs)), "ratio")
		}
	}

	// Index build and candidate generation on the current snapshot.
	var builds []time.Duration
	var idx *index.Index
	for i := 0; i < 3; i++ {
		builds = append(builds, timeEach("index.Build", 1, func(int) { idx = index.Build(snap) }))
	}
	put("index.build_ms", median(millis(builds)), "ms")
	put("index.candidates_us", us(timeEach("index.Index.Candidates", 100, func(i int) {
		idx.Candidates(wfs[(i*37)%len(wfs)], 1)
	})), "us")

	// Score-cache lookups on a warm cache.
	cache := scorecache.New(1 << 16)
	keys := make([]scorecache.Key, 40000)
	for i := range keys {
		keys[i] = scorecache.PairKey("MS_ip_te_pll", uint32(rng.Intn(1<<20)+1), uint32(rng.Intn(1<<20)+1), 1, 1)
		cache.Put(keys[i], float64(i))
	}
	getAvg := timeEach("scorecache.Cache.Get", 200000, func(i int) { cache.Get(keys[i%len(keys)]) })
	put("scorecache.get_ns", float64(getAvg), "ns")

	if err := t.pairProbes(ctx, put); err != nil {
		return err
	}
	if err := t.applyProbes(ctx, put); err != nil {
		return err
	}

	// Resolve (intern and index labels) of incoming workflows against a
	// table that already holds the corpus vocabulary.
	tab := symtab.New()
	for _, wf := range wfs {
		c := wf.Clone()
		c.Resolve(tab)
	}
	var incoming []*wfsim.Workflow
	for _, b := range t.batches() {
		for _, js := range b.puts {
			wf, err := decodeWorkflow(js)
			if err != nil {
				return err
			}
			incoming = append(incoming, wf)
		}
	}
	put("workflow.resolve_us", us(timeEach("workflow.Workflow.Resolve", len(incoming), func(i int) {
		if err := incoming[i].Validate(); err != nil {
			panic(err) // decodeWorkflow validated it
		}
		incoming[i].Resolve(tab)
	})), "us")
	return nil
}

// batches returns the batches the replay applies.
func (t *traced) batches() []batch {
	if t.probe != nil {
		return t.probe.batches
	}
	return t.p.batches[:min(replayIngest, len(t.p.batches))]
}

// pairProbes times the pair-matrix path's internal functions directly.
func (t *traced) pairProbes(ctx context.Context, put func(string, float64, string)) error {
	tr := t.tr
	n := min(pairCorpus, len(t.p.ids))
	if t.w.name == "curate" {
		n = len(t.p.ids)
	}
	var wfs []*wfsim.Workflow
	for _, id := range t.p.ids[:n] {
		wf, err := decodeWorkflow(t.p.baseJS[id])
		if err != nil {
			return err
		}
		wfs = append(wfs, wf)
	}
	repo, err := wfsim.NewRepository(wfs...)
	if err != nil {
		return err
	}
	eng, err := wfsim.New(repo)
	if err != nil {
		return err
	}
	snap := eng.Snapshot()
	m, err := eng.ParseMeasure("")
	if err != nil {
		return err
	}
	root := tr.begin("probe.pairs", -2, -1)
	defer tr.end(root)
	var dur time.Duration
	var derr error
	tr.do("search.Duplicates", -2, root, func(int) {
		t0 := time.Now()
		_, _, derr = search.Duplicates(ctx, snap, m, dupThreshold, t.cfg.procs)
		dur = time.Since(t0)
	})
	if derr != nil {
		return derr
	}
	put("search.dup_pairs_per_s", float64(n*(n-1)/2)/dur.Seconds(), "1/s")
	var mat *cluster.Matrix
	tr.do("cluster.BuildMatrix", -2, root, func(int) {
		t0 := time.Now()
		mat, derr = cluster.BuildMatrix(ctx, snap, m, t.cfg.procs)
		dur = time.Since(t0)
	})
	if derr != nil {
		return derr
	}
	put("cluster.matrix_s", dur.Seconds(), "s")
	tr.do("cluster.Agglomerative", -2, root, func(int) {
		t0 := time.Now()
		cluster.Agglomerative(mat, clusterMinSim)
		dur = time.Since(t0)
	})
	put("cluster.link_ms", ms(dur), "ms")
	return nil
}

// applyProbes applies the replay's batches to a RAM-only engine and to
// durable engines with and without fsync; the difference of the durable
// medians is the fsync cost per batch.
func (t *traced) applyProbes(ctx context.Context, put func(string, float64, string)) error {
	bs := t.batches()
	apply := func(name string, opts ...wfsim.Option) ([]time.Duration, error) {
		e, err := t.newEngine(opts...)
		if err != nil {
			return nil, err
		}
		var out []time.Duration
		for _, b := range bs {
			muts, err := b.mutations()
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			var aerr error
			t.tr.do("wfsim.Engine.Apply", -3, -1, func(int) { _, aerr = e.Apply(ctx, muts...) })
			if aerr != nil {
				return nil, fmt.Errorf("%s apply: %w", name, aerr)
			}
			out = append(out, time.Since(t0))
		}
		return out, nil
	}
	ram, err := apply("ram", wfsim.WithIndex(1), wfsim.WithScoreCache(1<<16))
	if err != nil {
		return err
	}
	synced, err := apply("fsync", t.engineOptions(filepath.Join(t.dir, "probe-sync"))...)
	if err != nil {
		return err
	}
	nosync, err := apply("nosync", t.engineOptions(filepath.Join(t.dir, "probe-nosync"), wfsim.StorageNoSync())...)
	if err != nil {
		return err
	}
	put("corpus.apply_nosync_ms", median(millis(ram)), "ms")
	put("storage.fsync_ms", median(millis(synced))-median(millis(nosync)), "ms")
	return nil
}
