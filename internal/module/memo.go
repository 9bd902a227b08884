package module

import (
	"sync"

	"repro/internal/matching"
	"repro/internal/workflow"
)

// SimMemo memoizes EditDistance comparator results for the duration of one
// whole-corpus scan. Module labels (and scripts, descriptions, service
// fields) are drawn from a corpus vocabulary that is tiny compared to the
// O(n²·m²) attribute pairs a Duplicates scan compares, so the same
// Levenshtein computation is repeated millions of times; the memo collapses
// each distinct string pair to one computation. Levenshtein similarity is
// symmetric and pure, so memoized scans return bit-identical scores.
//
// Only EditDistance results are memoized — Exact/ExactFold are cheaper than
// the lookup. A SimMemo is safe for concurrent use (internally sharded) and
// is meant to be scan-scoped: it has no eviction, only a hard entry cap
// (insertion stops when full, correctness is unaffected).
type SimMemo struct {
	shards [simMemoShards]simMemoShard
}

const (
	simMemoShards = 32
	// simMemoCap bounds total entries across shards. At two interned-ish
	// strings and a float per entry this keeps a runaway vocabulary under
	// ~100 MB instead of unbounded.
	simMemoCap = 1 << 20
)

type simMemoShard struct {
	mu sync.RWMutex
	m  map[simMemoKey]float64
	// ids memoizes by packed symbol-pair key for interned attributes:
	// one integer probe instead of hashing two strings.
	ids map[uint64]float64
}

type simMemoKey struct{ a, b string }

// NewSimMemo returns an empty memo.
func NewSimMemo() *SimMemo {
	return &SimMemo{}
}

// editSimilarity returns the memoized Levenshtein similarity of (a, b).
func (sm *SimMemo) editSimilarity(a, b string) float64 {
	if a > b {
		a, b = b, a // symmetric: canonicalize key order
	}
	k := simMemoKey{a, b}
	sh := &sm.shards[memoHash(a, b)%simMemoShards]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = EditDistance.compare(a, b)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[simMemoKey]float64)
	}
	if len(sh.m) < simMemoCap/simMemoShards {
		sh.m[k] = v
	}
	sh.mu.Unlock()
	return v
}

// editSimilarityID returns the memoized Levenshtein similarity of two
// interned attribute values. Both IDs must be nonzero and distinct (equal
// IDs prove identical strings, decided by the caller without a lookup).
// The key is the packed ordered ID pair; Levenshtein similarity is
// symmetric, so canonicalizing by ID instead of string order returns the
// same value as the string-keyed memo.
//
//wfsimvet:hotpath
func (sm *SimMemo) editSimilarityID(ida, idb uint32, a, b string) float64 {
	if ida > idb {
		ida, idb = idb, ida
		a, b = b, a
	}
	k := uint64(ida)<<32 | uint64(idb)
	sh := &sm.shards[(ida^idb)%simMemoShards]
	sh.mu.RLock()
	v, ok := sh.ids[k]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = EditDistance.compare(a, b)
	sh.mu.Lock()
	if sh.ids == nil {
		sh.ids = make(map[uint64]float64)
	}
	if len(sh.ids) < simMemoCap/simMemoShards {
		sh.ids[k] = v
	}
	sh.mu.Unlock()
	return v
}

// Len returns the number of memoized pairs (for tests and stats),
// counting string-keyed and symbol-keyed entries.
func (sm *SimMemo) Len() int {
	n := 0
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.RLock()
		n += len(sh.m) + len(sh.ids)
		sh.mu.RUnlock()
	}
	return n
}

// memoHash is FNV-1a over both strings, matching the canonicalized order.
func memoHash(a, b string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime64
	}
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= prime64
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// compareMemo is Comparator.compare routed through a memo for the
// comparators where memoization pays; a nil memo degrades to the plain
// comparison.
func (c Comparator) compareMemo(a, b string, memo *SimMemo) float64 {
	if memo != nil && c == EditDistance {
		return memo.editSimilarity(a, b)
	}
	return c.compare(a, b)
}

// SimilarityMemo computes the scheme's module similarity like Similarity,
// memoizing EditDistance attribute comparisons in memo (which may be nil).
// Interned attributes (labels, types) take a symbol fast path: IDs come
// from one shared append-only table, so equal nonzero IDs prove the
// strings identical (similarity 1 under every comparator) and distinct
// nonzero IDs prove them different, which decides Exact outright and
// routes EditDistance through the symbol-keyed memo. ExactFold still
// compares the strings for distinct IDs — case-folded equality is not
// symbol equality. Scores are bit-identical to Similarity on unresolved
// modules.
//
//wfsimvet:hotpath
func (s Scheme) SimilarityMemo(a, b *workflow.Module, memo *SimMemo) float64 {
	var sum, wsum float64
	for _, spec := range s.Specs {
		if ida, idb, interned := attrIDs(a, b, spec.Attr); interned && ida != 0 && idb != 0 {
			// Nonzero IDs prove both strings nonempty: the attribute
			// is present and contributes its weight.
			wsum += spec.Weight
			if ida == idb {
				sum += spec.Weight // identical strings: similarity 1
				continue
			}
			switch spec.Cmp {
			case Exact:
				// distinct symbols: distinct strings, similarity 0
			case ExactFold:
				sum += spec.Weight * ExactFold.compare(value(a, spec.Attr), value(b, spec.Attr))
			case EditDistance:
				if memo != nil {
					sum += spec.Weight * memo.editSimilarityID(ida, idb, value(a, spec.Attr), value(b, spec.Attr))
				} else {
					sum += spec.Weight * EditDistance.compare(value(a, spec.Attr), value(b, spec.Attr))
				}
			}
			continue
		}
		va, vb := value(a, spec.Attr), value(b, spec.Attr)
		if va == "" && vb == "" {
			continue // attribute absent from both: no evidence either way
		}
		sum += spec.Weight * spec.Cmp.compareMemo(va, vb, memo)
		wsum += spec.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// WeightMatrixMemo is WeightMatrix with a scan-scoped memo (which may be
// nil) threaded through the attribute comparisons.
func WeightMatrixMemo(a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo) (matching.Weights, PairStats) {
	return weightMatrixModules(a.Modules, b.Modules, s, p, memo)
}

// WeightMatrixForMemo is WeightMatrixFor with a scan-scoped memo (which may
// be nil) threaded through the attribute comparisons.
func WeightMatrixForMemo(a, b []*workflow.Module, s Scheme, p Preselect, memo *SimMemo) (matching.Weights, PairStats) {
	return weightMatrixModules(a, b, s, p, memo)
}

// WeightMatrixInto is WeightMatrixMemo writing the matrix row-major into
// dst's storage, reallocated only when too small — the allocation-free form
// for callers that pool their buffers. Row i of the result is
// w[i*len(b.Modules) : (i+1)*len(b.Modules)].
func WeightMatrixInto(dst []float64, a, b *workflow.Workflow, s Scheme, p Preselect, memo *SimMemo) ([]float64, PairStats) {
	cells := len(a.Modules) * len(b.Modules)
	if cap(dst) < cells {
		dst = make([]float64, cells)
	}
	return fillWeights(dst[:cells], a.Modules, b.Modules, s, p, memo)
}
