package wfsim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/scorecache"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/symtab"
)

// WithShards partitions the corpus across n engine shards by
// consistent-hashed workflow ID. Each shard owns its slice of the corpus,
// its inverted label index (WithIndex), its score cache (WithScoreCache) and
// its own storage directory (WithStorage: shard-NNNN subdirectories under
// the data directory, plus a layout marker recording n). The engine's
// read/write surface is the same at every shard count: reads fan out to
// every shard and merge deterministically, Apply routes each mutation to
// its owning shard with all-or-nothing validation across shards, and
// results are bit-identical to a single-shard engine's.
//
// n = 1 (the default) is one shard that owns the caller's repository and
// keeps the flat storage layout (the data directory itself, no marker). A
// data directory initialised with one shard count refuses to open with
// another — resharding on disk is not supported.
func WithShards(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("wfsim: shard count %d < 1", n)
		}
		e.shardCount = n
		return nil
	}
}

// open is New's finalize step, run after every option: it checks the
// on-disk layout, builds or recovers every shard, stands up the coordinator
// the engine's operations route through, builds the initial
// repository-knowledge projector over the boot view, and re-seeds the warm
// score caches under its epoch.
func (e *Engine) open() error {
	n := e.shardCount
	if e.storageCfg.warnf == nil {
		e.storageCfg.warnf = func(string, ...any) {}
	}
	var dirs []string
	if e.storageDir != "" {
		if err := shard.CheckLayout(e.storageDir, n); err != nil {
			return err
		}
		dirs = shard.Dirs(e.storageDir, n)
		if seed := e.repo.Snapshot(); seed.Size() > 0 || seed.Generation() > 0 {
			for _, dir := range dirs {
				has, err := storage.DirHasState(dir)
				if err != nil {
					return err
				}
				if has {
					return fmt.Errorf("storage directory %s holds state; refusing to recover into a non-empty repository (preload only into a fresh data directory)", e.storageDir)
				}
			}
		}
	}
	cfgs := make([]shard.LocalConfig, n)
	if n == 1 {
		// The single shard owns the caller's repository, so the corpus the
		// caller built is the engine's live corpus.
		cfgs[0].Repo = e.repo
	} else {
		// Partition the seed repository by ring owner. A recovering engine
		// has an empty seed and every shard restores its own slice; the
		// marker pins the shard count, so the recovered partition matches
		// the ring. One symbol table serves the whole deployment:
		// cross-shard reads compare and cache-key workflows from different
		// shards, so their interned IDs must come from one assignment
		// order. The seed's table is reused so its resolved workflows keep
		// their IDs.
		ring, err := shard.NewRing(n)
		if err != nil {
			return err
		}
		tab := e.repo.Symtab()
		if tab == nil {
			tab = symtab.New()
		}
		for _, wf := range e.repo.Snapshot().Workflows() {
			o := ring.Owner(wf.ID)
			cfgs[o].Seed = append(cfgs[o].Seed, wf)
		}
		for i := range cfgs {
			cfgs[i].Symtab = tab
		}
	}
	perCache := 0
	if e.cacheWanted {
		total := e.cacheSize
		if total <= 0 {
			total = scorecache.DefaultSize
		}
		perCache = (total + n - 1) / n
	}
	shards := make([]shard.Shard, n)
	closeBuilt := func() {
		for _, s := range shards {
			if s != nil {
				s.Close(nil) //wfsimvet:ignore errpath best-effort unwind of partially built shards; the construction error wins
			}
		}
	}
	for i := range shards {
		cfg := cfgs[i]
		cfg.MinShared = e.minShared
		cfg.CacheSize = perCache
		cfg.Concurrency = e.concurrency
		if dirs != nil {
			cfg.Dir = dirs[i]
			cfg.Storage = storage.Options{
				CompactBytes:   e.storageCfg.compactBytes,
				CompactRecords: e.storageCfg.compactRecords,
				NoSync:         e.storageCfg.noSync,
				Warnf:          e.storageCfg.warnf,
			}
		}
		s, err := shard.NewLocal(i, cfg)
		if err != nil {
			closeBuilt()
			return err
		}
		shards[i] = s
	}
	coord, err := shard.NewCoordinator(shards)
	if err != nil {
		closeBuilt()
		return err
	}
	e.coord = coord
	_, epoch := e.projection(coord.View())
	if dirs != nil && e.cacheWanted {
		coord.WarmLoad(e.projectionSig(), epoch)
	}
	return nil
}

// vecKey formats a frontier key from a generation vector.
func vecKey(gens []uint64) string {
	var b strings.Builder
	b.WriteByte('v')
	for i, g := range gens {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(g, 10))
	}
	return b.String()
}

// shardVector is the view's generation vector as read results carry it:
// nil at one shard, where the aggregate generation says the same.
func shardVector(v shard.View) []uint64 {
	if len(v.Pins()) == 1 {
		return nil
	}
	return v.Generations()
}

// fillRead copies coordinator scan stats into a Stats under the view's
// generation stamps.
func fillRead(stats *Stats, v shard.View, r shard.ReadStats) {
	stats.Scored = r.Scored
	stats.Skipped = r.Skipped
	stats.Pruned = r.Pruned
	stats.CacheHits = r.CacheHits
	stats.CacheMisses = r.CacheMisses
	stats.Generation = v.AggregateGeneration()
	stats.Generations = shardVector(v)
}

// ShardInfo is one shard's stats block, as reported by ShardStats.
type ShardInfo struct {
	// ID is the shard's ring position.
	ID int `json:"id"`
	// Generation is the shard's own generation (one element of the vector).
	Generation uint64 `json:"generation"`
	// Workflows is the number of corpus workflows the shard owns.
	Workflows int `json:"workflows"`
	// Index is the shard's inverted-index block; nil without WithIndex.
	Index *IndexStats `json:"index,omitempty"`
	// Cache is the shard's score-cache block; nil without WithScoreCache.
	Cache *CacheStats `json:"cache,omitempty"`
	// Storage is the shard's durability block; nil without WithStorage.
	Storage *StorageStats `json:"storage,omitempty"`
}

// ShardStats reports every shard's stats, in shard order — one block at one
// shard. IndexStats, CacheStats and StorageStats serve the same counters as
// cross-shard aggregates.
func (e *Engine) ShardStats() []ShardInfo {
	infos := e.coord.Infos()
	out := make([]ShardInfo, len(infos))
	for i, info := range infos {
		si := ShardInfo{ID: info.ID, Generation: info.Generation, Workflows: info.Workflows}
		if info.Index != nil {
			si.Index = &IndexStats{
				Live:        info.Index.Live,
				Dead:        info.Index.Dead,
				Vocabulary:  info.Index.Vocabulary,
				Compactions: info.Index.Compactions,
				Rebuilds:    info.IndexRebuilds,
				Generation:  info.Index.Generation,
			}
		}
		if info.Cache != nil {
			st := *info.Cache
			si.Cache = &st
		}
		if info.Storage != nil {
			si.Storage = &StorageStats{Stats: *info.Storage, WarmCacheEntries: info.WarmEntries}
		}
		out[i] = si
	}
	return out
}
