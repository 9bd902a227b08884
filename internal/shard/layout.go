package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// MarkerFormat identifies the on-disk sharded layout. It covers both the
// directory structure (shards.json + shard-NNNN subdirectories) and the
// partitioning function (FNV-1a ring, 64 virtual nodes per shard): a change
// to either needs a new format string.
const MarkerFormat = "wfsim-shards-v1"

// markerFile is the layout marker at the root of a sharded data directory.
const markerFile = "shards.json"

type marker struct {
	Format string `json:"format"`
	Shards int    `json:"shards"`
}

// ShardDir returns the storage subdirectory for shard i under root.
func ShardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// Dirs returns the storage directory of every shard of an n-shard
// deployment rooted at root: root itself for a single shard (the flat
// layout, with no marker), the shard-NNNN subdirectories otherwise.
func Dirs(root string, n int) []string {
	if n == 1 {
		return []string{root}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = ShardDir(root, i)
	}
	return dirs
}

// ReadMarker reports the shard count recorded in root's layout marker.
// ok is false when no marker exists (the directory is unsharded or empty).
func ReadMarker(root string) (n int, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, markerFile))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("shard: read layout marker: %w", err)
	}
	var m marker
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, false, fmt.Errorf("shard: parse %s: %w", filepath.Join(root, markerFile), err)
	}
	if m.Format != MarkerFormat {
		return 0, false, fmt.Errorf("shard: %s has unsupported layout format %q (want %q)", root, m.Format, MarkerFormat)
	}
	if m.Shards < 1 {
		return 0, false, fmt.Errorf("shard: %s records invalid shard count %d", root, m.Shards)
	}
	return m.Shards, true, nil
}

// WriteMarker records the shard count in root's layout marker. The marker is
// written once when a sharded data directory is initialised and never
// rewritten: reopening with a different count is refused, not resharded.
func WriteMarker(root string, n int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("shard: create data directory: %w", err)
	}
	data, err := json.Marshal(marker{Format: MarkerFormat, Shards: n})
	if err != nil {
		return err
	}
	path := filepath.Join(root, markerFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shard: write layout marker: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("shard: write layout marker: %w", err)
	}
	return nil
}

// CheckLayout validates root for opening with n shards and initialises the
// marker when a directory for n > 1 shards is fresh. It refuses, with a
// clear error, to reinterpret a directory written under a different shard
// count, a sharded directory as the flat single-shard layout, or a flat
// directory as a sharded one — resharding on disk is never silent.
func CheckLayout(root string, n int) error {
	recorded, ok, err := ReadMarker(root)
	if err != nil {
		return err
	}
	switch {
	case ok && n == 1:
		// The corpus lives in the shard subdirectories; a flat log written
		// alongside would fork the state.
		return fmt.Errorf("storage directory %s holds a sharded corpus (%d shards); reopen it with WithShards(%d) (wfsimd: -shards %d)", root, recorded, recorded, recorded)
	case ok && recorded != n:
		return fmt.Errorf("shard: data directory %s was written with %d shards; refusing to open with %d (resharding on disk is not supported — start with -shards %d or point at a fresh directory)", root, recorded, n, recorded)
	case ok || n == 1:
		return nil
	}
	// No marker. A flat (unsharded) storage layout here means the directory
	// belongs to a single-shard engine.
	flat, err := storage.DirHasState(root)
	if err != nil {
		return err
	}
	if flat {
		return fmt.Errorf("shard: data directory %s holds an unsharded corpus; refusing to open with %d shards (run without -shards, or point at a fresh directory)", root, n)
	}
	return WriteMarker(root, n)
}

// DirHasState reports whether root holds any durable corpus state in the
// sharded layout: a layout marker, or stored state under any shard
// subdirectory.
func DirHasState(root string) (bool, error) {
	recorded, ok, err := ReadMarker(root)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	for i := 0; i < recorded; i++ {
		has, err := storage.DirHasState(ShardDir(root, i))
		if err != nil {
			return false, err
		}
		if has {
			return true, nil
		}
	}
	// The marker alone pins the directory to a shard count even before the
	// first commit: treat it as state so preloads don't silently adopt it.
	return true, nil
}
