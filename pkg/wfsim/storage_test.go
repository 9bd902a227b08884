package wfsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// storageWorkflow builds a small valid workflow for storage tests.
func storageWorkflow(id string, labels ...string) *Workflow {
	w := NewWorkflow(id)
	w.Annotations.Title = "wf " + id
	prev := -1
	for i, label := range labels {
		idx := w.AddModule(&Module{ID: fmt.Sprintf("m%d", i), Label: label, Type: TypeWSDL})
		if prev >= 0 {
			if err := w.AddEdge(prev, idx); err != nil {
				panic(err)
			}
		}
		prev = idx
	}
	return w
}

func newStoredEngine(t *testing.T, dir string, extra ...Option) *Engine {
	t.Helper()
	repo, err := NewRepository()
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{WithStorage(dir), WithIndex(1), WithScoreCache(1 << 12)}, extra...)
	eng, err := New(repo, opts...)
	if err != nil {
		t.Fatalf("New with storage: %v", err)
	}
	return eng
}

func ingestFixture(t *testing.T, eng *Engine) {
	t.Helper()
	ctx := context.Background()
	if _, err := eng.Apply(ctx,
		AddWorkflow(storageWorkflow("a", "fetch_sequence", "run_blast")),
		AddWorkflow(storageWorkflow("b", "fetch_sequence", "plot_hits")),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx,
		AddWorkflow(storageWorkflow("c", "load_image", "segment_cells")),
	); err != nil {
		t.Fatal(err)
	}
}

// TestStorageRestartRoundTrip is the headline durability contract: ingest,
// close, reopen from the same directory — same generation, same query
// results, and a warm score cache that answers the repeat query without a
// single measure evaluation.
func TestStorageRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	res1, stats1, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) == 0 || res1[0].ID != "b" {
		t.Fatalf("pre-restart search results %v, want b first", res1)
	}
	gen1 := eng1.Generation()
	if err := eng1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if got := eng2.Generation(); got != gen1 {
		t.Fatalf("restart generation %d, want %d", got, gen1)
	}
	st, ok := eng2.StorageStats()
	if !ok {
		t.Fatal("engine with WithStorage reports no storage stats")
	}
	if st.Recovery.Generation != gen1 || st.Recovery.Workflows != 3 {
		t.Fatalf("recovery stats %+v, want generation %d with 3 workflows", st.Recovery, gen1)
	}
	if st.WarmCacheEntries == 0 {
		t.Fatal("no warm cache entries re-seeded after restart")
	}

	res2, stats2, err := eng2.SearchID(ctx, "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res1) {
		t.Fatalf("restart search returned %d results, want %d", len(res2), len(res1))
	}
	for i := range res2 {
		if res2[i].ID != res1[i].ID || res2[i].Similarity != res1[i].Similarity {
			t.Fatalf("restart result %d = %+v, want %+v", i, res2[i], res1[i])
		}
	}
	if stats2.Generation != stats1.Generation {
		t.Fatalf("restart served generation %d, want %d", stats2.Generation, stats1.Generation)
	}
	if stats2.CacheMisses != 0 || stats2.CacheHits == 0 {
		t.Fatalf("restart search was not warm: %d hits / %d misses, want all hits", stats2.CacheHits, stats2.CacheMisses)
	}
}

// TestStorageCrashRestart skips Close entirely — the kill -9 path: the
// fsynced log alone must reproduce the repository.
func TestStorageCrashRestart(t *testing.T) {
	dir := t.TempDir()
	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	gen1 := eng1.Generation()
	// No Close: the daemon was killed. (The still-open file handle is
	// dropped with eng1; every commit was already fsynced.)

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if got := eng2.Generation(); got != gen1 {
		t.Fatalf("crash-restart generation %d, want %d", got, gen1)
	}
	res, _, err := eng2.SearchID(context.Background(), "a", SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != "b" {
		t.Fatalf("crash-restart search results %v, want b first", res)
	}
	if st, _ := eng2.StorageStats(); st.Recovery.SnapshotLoaded {
		t.Fatal("crash restart claims a snapshot was loaded; none was ever written")
	}
}

// TestStorageCompactionThreshold proves Apply-driven compaction: with a
// 2-record threshold every other batch checkpoints, the log stays short,
// and restarts recover from snapshot + tail.
func TestStorageCompactionThreshold(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng := newStoredEngine(t, dir, WithStorage(dir, StorageCompaction(-1, 2)))
	for i := 0; i < 5; i++ {
		if _, err := eng.Apply(ctx, AddWorkflow(storageWorkflow(fmt.Sprintf("w%d", i), "step_a", "step_b"))); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := eng.StorageStats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after 5 commits with a 2-record threshold: %+v", st)
	}
	if st.LogRecords >= 5 {
		t.Fatalf("log never truncated: %d records", st.LogRecords)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	if eng2.Generation() != 5 || eng2.Snapshot().Size() != 5 {
		t.Fatalf("recovered generation %d size %d, want 5/5", eng2.Generation(), eng2.Snapshot().Size())
	}
	st2, _ := eng2.StorageStats()
	if !st2.Recovery.SnapshotLoaded {
		t.Fatal("recovery after compaction did not load a snapshot")
	}
}

// TestStorageRefusesNonEmptyRepository pins the double-load guard at the
// engine layer: recovering stored state into a repository that already has
// contents must fail construction.
func TestStorageRefusesNonEmptyRepository(t *testing.T) {
	dir := t.TempDir()
	eng := newStoredEngine(t, dir)
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	repo, err := NewRepository(storageWorkflow("pre", "loaded_step"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(repo, WithStorage(dir)); err == nil || !strings.Contains(err.Error(), "refusing to recover") {
		t.Fatalf("New over stored state with non-empty repository: %v, want refusal", err)
	}
}

// TestStoragePreloadBaseline: a pre-populated repository adopting a fresh
// directory persists its contents as the baseline snapshot.
func TestStoragePreloadBaseline(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository(storageWorkflow("pre", "loaded_step", "second_step"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(repo, WithStorage(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), AddWorkflow(storageWorkflow("post", "third_step"))); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close): both the baseline snapshot and the logged batch
	// must survive.
	eng2 := newStoredEngine(t, dir)
	defer eng2.Close()
	snap := eng2.Snapshot()
	if snap.Size() != 2 || snap.Get("pre") == nil || snap.Get("post") == nil {
		t.Fatalf("recovered %v, want pre and post", snap.IDs())
	}
}

// TestApplyAfterCloseFails: Close flushes and fences; later mutations must
// not silently succeed in RAM while the log no longer records them.
func TestApplyAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	eng := newStoredEngine(t, dir)
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	_, err := eng.Apply(context.Background(), AddWorkflow(storageWorkflow("late", "too_late")))
	if !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Apply after Close: %v, want storage.ErrClosed", err)
	}
	if eng.Snapshot().Get("late") != nil {
		t.Fatal("rejected mutation is visible in memory")
	}
	// Reads still work after Close.
	if _, _, err := eng.SearchID(context.Background(), "a", SearchOptions{K: 3}); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
}

// TestHasStoredState drives the daemon's preload-conflict check.
func TestHasStoredState(t *testing.T) {
	dir := t.TempDir()
	if has, err := HasStoredState(dir); err != nil || has {
		t.Fatalf("empty dir: has=%v err=%v", has, err)
	}
	eng := newStoredEngine(t, dir)
	if has, err := HasStoredState(dir); err != nil || has {
		t.Fatalf("opened-but-unwritten dir: has=%v err=%v, want false", has, err)
	}
	ingestFixture(t, eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if has, err := HasStoredState(dir); err != nil || !has {
		t.Fatalf("dir with committed state: has=%v err=%v, want true", has, err)
	}
}

// TestWarmCacheStaleOnDifferentProjection: a restart with a different
// projection configuration must boot cold, not serve scores computed under
// another projection.
func TestWarmCacheStaleOnDifferentProjection(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	eng1 := newStoredEngine(t, dir)
	ingestFixture(t, eng1)
	if _, _, err := eng1.SearchID(ctx, "a", SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newStoredEngine(t, dir, WithRepositoryKnowledge(0.5))
	defer eng2.Close()
	if st, _ := eng2.StorageStats(); st.WarmCacheEntries != 0 {
		t.Fatalf("warm cache re-seeded across a projection change: %d entries", st.WarmCacheEntries)
	}
}

// TestFlatLayoutBootsOnOnePath: data directories in the flat layout boot on
// the single-shard coordinator path with their state intact.
//
// testdata/flat-v2 was written by the flat single-repository engine that
// preceded the coordinator path (24 generated workflows added in three
// batches, one replace-and-remove batch, four searches, then Close);
// testdata/flat-v2.json records what that engine reported: generation,
// size, warm score-cache entries persisted at Close, and the top-5 results
// (IDs and score bits) of each search. The v1 case boots a pre-symbol-table
// fixture, then restarts it warm.
func TestFlatLayoutBootsOnOnePath(t *testing.T) {
	ctx := context.Background()
	t.Run("v2", func(t *testing.T) {
		var want struct {
			Generation uint64 `json:"generation"`
			Size       int    `json:"size"`
			WarmCache  int    `json:"warm_cache_entries"`
			Results    map[string][]struct {
				ID   string `json:"id"`
				Bits uint64 `json:"bits"`
			} `json:"results"`
		}
		js, err := os.ReadFile(filepath.Join("testdata", "flat-v2.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "flat-v2"))); err != nil {
			t.Fatal(err)
		}
		eng := newStoredEngine(t, dir)
		defer eng.Close()
		if eng.Shards() != 1 || eng.Generation() != want.Generation || eng.Size() != want.Size {
			t.Fatalf("booted %d shard(s) at generation %d with %d workflows, want 1 at %d with %d",
				eng.Shards(), eng.Generation(), eng.Size(), want.Generation, want.Size)
		}
		if st, _ := eng.StorageStats(); st.WarmCacheEntries != want.WarmCache {
			t.Errorf("warm cache entries %d, want %d", st.WarmCacheEntries, want.WarmCache)
		}
		if _, err := os.Stat(filepath.Join(dir, "shards.json")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("flat directory gained a shard marker (stat err %v)", err)
		}
		for q, results := range want.Results {
			got, stats, err := eng.SearchID(ctx, q, SearchOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(results) {
				t.Fatalf("query %s: %d results, want %d", q, len(got), len(results))
			}
			for i, r := range results {
				if got[i].ID != r.ID || math.Float64bits(got[i].Similarity) != r.Bits {
					t.Errorf("query %s rank %d: (%s, %v), want (%s, %v)", q, i, got[i].ID, got[i].Similarity, r.ID, math.Float64frombits(r.Bits))
				}
			}
			if stats.CacheMisses != 0 || stats.CacheHits == 0 {
				t.Errorf("query %s not served warm: %d hits, %d misses", q, stats.CacheHits, stats.CacheMisses)
			}
		}
	})
	t.Run("v1", func(t *testing.T) {
		dir := t.TempDir()
		base := []*Workflow{
			storageWorkflow("a", "fetch_sequence", "run_blast"),
			storageWorkflow("b", "fetch_sequence", "plot_hits"),
		}
		tail := []*Workflow{storageWorkflow("c", "load_image", "segment_cells"), storageWorkflow("d", "fetch_sequences", "run_blastp")}
		if err := storage.WriteLegacyFixture(dir, 2, base, tail); err != nil {
			t.Fatal(err)
		}
		eng := newStoredEngine(t, dir)
		if eng.Generation() != 4 || eng.Size() != 4 {
			t.Fatalf("v1 boot at generation %d with %d workflows, want 4 and 4", eng.Generation(), eng.Size())
		}
		first, _, err := eng.SearchID(ctx, "a", SearchOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng2 := newStoredEngine(t, dir)
		defer eng2.Close()
		if st, _ := eng2.StorageStats(); eng2.Generation() != 4 || eng2.Size() != 4 || st.WarmCacheEntries == 0 {
			t.Fatalf("restart at generation %d with %d workflows and %d warm entries, want 4, 4 and some",
				eng2.Generation(), eng2.Size(), st.WarmCacheEntries)
		}
		again, stats, err := eng2.SearchID(ctx, "a", SearchOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("restart returned %d results, want %d", len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Errorf("restart rank %d: %+v, want %+v", i, again[i], first[i])
			}
		}
		if stats.CacheMisses != 0 {
			t.Errorf("restart search missed the warm cache %d times", stats.CacheMisses)
		}
	})
}
