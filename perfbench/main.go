// Command perfbench is the repository's benchmark. It builds nothing itself
// (run.sh builds wfsimd and this program from the checkout); it launches
// wfsimd as a child process on loopback, drives one seeded workload from
// this single process with at most nproc connections, checks every kept
// output against an in-process reference engine, and prints one JSON result
// as its last line of output.
//
//	perfbench --workload query-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it runs the same loopback workload and then a traced
// in-process replay of the same inputs, and reports per-layer metrics
// instead of end-to-end ones. See METRICS.md for every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	bin      string // wfsimd binary
	work     string // scratch directory under .bench_build
	procs    int    // nproc: connections, client threads, server GOMAXPROCS
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window per run")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced in-process replay")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.bin, "bin", "", "wfsimd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.procs = runtime.NumCPU()
	// The generator's own garbage collection competes with the server for
	// the same cores; collect rarely (the run's heap stays small).
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, &cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg *config) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.bin == "" {
		return nil, fmt.Errorf("-bin is required (run the benchmark through run.sh)")
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p, err := makePlan(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	lb := &loopback{cfg: cfg, w: w, p: p, dir: dir}
	if err := lb.run(ctx); err != nil {
		return nil, err
	}
	stampEnv(cfg, w, p, lb.args)
	e2e, attempted, failed := endToEnd(w, lb)
	for _, name := range sortedKeys(e2e.human) {
		fmt.Println("#", name, e2e.human[name])
	}
	res := &result{Attempted: attempted, Failed: failed, Metrics: e2e.metrics}
	errs := lb.errs
	if cfg.trace {
		tr := &traced{cfg: cfg, w: w, p: p, dir: dir, lb: lb}
		layers, err := tr.run(ctx)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		errs = append(errs, tr.errs...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res.Correct = len(errs) == 0
	return res, nil
}

// Group sizes of groupedQuantile: each group has at least ten samples
// beyond the percentile taken from it.
const (
	groupP50 = 20
	groupP90 = 100
)

// e2eReport holds the metrics of the JSON result and the human-readable lines.
type e2eReport struct {
	metrics map[string]metric
	human   map[string]string
}

// endToEnd computes the end-to-end metrics of an untraced run. Every
// workload reports the same names; which request kind is "main" and
// "second" is fixed per workload (see METRICS.md).
func endToEnd(w *workload, lb *loopback) (e2eReport, int, int) {
	rep := e2eReport{metrics: map[string]metric{}, human: map[string]string{}}
	put := func(name string, v float64, unit string) { rep.metrics[name] = metric{v, unit} }
	say := func(name string, v float64, unit string, n int, note string) {
		rep.human[name] = fmt.Sprintf("%.4f %s n=%d %s", v, unit, n, note)
	}
	failed := 0
	for _, r := range lb.col.recs {
		if r.failed() {
			failed++
		}
	}
	mainLat := latencies(lb.col.recs, w.main...)
	second := latencies(lb.col.recs, w.second)
	p50 := groupedQuantile(mainLat, groupP50, 50)
	p90 := groupedQuantile(mainLat, groupP90, 90)
	secondP50 := groupedQuantile(second, groupP50, 50)
	qps := float64(len(mainLat)) / lb.elapsed.Seconds()
	put("setup_s", medianSeconds(lb.setup), "s")
	put("main_p50_ms", p50, "ms")
	put("second_p50_ms", secondP50, "ms")
	put("peak_rss_mb", lb.rss, "MiB")

	// The same numbers under request-specific names, with sample counts,
	// for readers of the log.
	say("setup_s", medianSeconds(lb.setup), "s", len(lb.setup), "")
	say("restart_s", medianSeconds(lb.restart), "s", len(lb.restart), "")
	say("peak_rss_mb", lb.rss, "MiB", 1, "")
	say("failed_frac", float64(failed)/float64(max(1, len(lb.col.recs))), "ratio", len(lb.col.recs), "")
	note := fmt.Sprintf("median of per-%d-request medians", groupP50)
	tnote := fmt.Sprintf("median of per-%d-request p90s", groupP90)
	if len(mainLat) < minGroups*groupP90 {
		tnote = "p90 of all samples: too few for groups"
	}
	switch w.name {
	case "query-cold", "ingest-mixed":
		say("search_p50_ms", p50, "ms", len(mainLat), note)
		say("search_p90_ms", p90, "ms", len(mainLat), tnote)
		if tailSupported(len(mainLat), 99) {
			say("search_p99_ms", quantile(mainLat, 99), "ms", len(mainLat), "over all samples")
		}
		say("search_qps", qps, "1/s", len(mainLat), "")
	case "curate":
		say("dup_s", p50/1000, "s", len(mainLat), "")
		say("dup_p90_s", p90/1000, "s", len(mainLat), tnote)
		say("cluster_s", secondP50/1000, "s", len(second), "")
	}
	switch w.name {
	case "query-cold":
		say("search_inline_p50_ms", secondP50, "ms", len(second), note)
	case "ingest-mixed":
		say("batch_p50_ms", secondP50, "ms", len(second), note)
		say("batch_p90_ms", groupedQuantile(second, groupP90, 90), "ms", len(second), "")
		var busy time.Duration
		for _, r := range lb.col.recs {
			if r.kind == "batch" {
				busy += r.done - r.sent
			}
		}
		say("batch_busy_frac", busy.Seconds()/lb.elapsed.Seconds(), "ratio", len(second), "writer connection busy / window")
	}
	st := lb.stats
	say("server.scorecache_hit_ratio", float64(st.Cache.Hits)/float64(max(1, st.Cache.Hits+st.Cache.Misses)), "ratio", 1, "GET /v1/stats at end of load")
	say("server.scorecache_entries", float64(st.Cache.Entries), "count", 1, "")
	if st.Index != nil {
		say("server.index_dead", float64(st.Index.Dead), "count", 1, "")
		say("server.index_compactions", float64(st.Index.Compactions), "count", 1, "")
	}
	if st.Storage != nil {
		say("server.storage_compactions", float64(st.Storage.Compactions), "count", 1, "")
	}
	var lags []time.Duration
	for _, r := range lb.col.recs {
		lags = append(lags, r.lag())
	}
	say("loadgen.lag_p99_ms", quantile(millis(lags), 99), "ms", len(lags), "")
	return rep, len(lb.col.recs), failed
}

// stampEnv prints the environment every result is tied to.
func stampEnv(cfg *config, w *workload, p *plan, args []string) {
	env := map[string]any{
		"workload":           w.name,
		"seed":               cfg.seed,
		"seconds":            cfg.seconds,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_loadgen": runtime.GOMAXPROCS(0),
		"gomaxprocs_server":  cfg.procs,
		"connections_max":    cfg.procs,
		"cpu":                cpuModel(),
		"go":                 runtime.Version(),
		"commit":             commit(cfg.root),
		"tree_sha256":        treeHash(cfg.root),
		"corpus_workflows":   len(p.ids),
		"wfsimd_flags":       args,
	}
	if p.novel != nil {
		env["inline_query_pool"] = len(p.novel)
	}
	if p.batches != nil {
		env["batch_ops"] = batchAdds + batchRemoves + batchReplaces
	}
	b, _ := json.Marshal(env) // map of plain values always encodes
	fmt.Println("# env", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" when the checkout is not
// a repository; tree_sha256 identifies the sources either way.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes the Go sources and module files under root.
func treeHash(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal to a stamp
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
