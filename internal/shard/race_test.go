package shard

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/measures"
	"repro/internal/module"
	"repro/internal/symtab"
	"repro/internal/workflow"
)

// versionMeasure scores a pair as the sum of the two workflows' content
// versions (parsed from the first module label, "v<n>"). Scores are then an
// exact function of the content a pin captured: a cache entry computed
// against one generation's content and served against another's is
// immediately visible as a wrong sum.
type versionMeasure struct{}

func (versionMeasure) Name() string { return "version_sum" }

func (versionMeasure) Compare(a, b *workflow.Workflow) (float64, error) {
	va, err := versionOf(a)
	if err != nil {
		return 0, err
	}
	vb, err := versionOf(b)
	if err != nil {
		return 0, err
	}
	return float64(va + vb), nil
}

// Specialise makes every scan hoist a projection, served from the shards'
// kept per-snapshot projected slices: the projection rewrites the version
// label "v<n>" as "p<n>", and the specialised measure accepts projected
// workflows only. A correct score therefore also proves that the projection
// a scan used belongs to the pinned content.
func (versionMeasure) Specialise(*module.SimMemo) (measures.Projector, measures.Measure) {
	project := func(wf *workflow.Workflow) *workflow.Workflow {
		return &workflow.Workflow{ID: wf.ID, Modules: []*workflow.Module{{Label: "p" + wf.Modules[0].Label[1:]}}}
	}
	return project, projectedVersionSum{}
}

// projectedVersionSum is versionMeasure over projected workflows.
type projectedVersionSum struct{}

func (projectedVersionSum) Name() string { return "version_sum" }

func (projectedVersionSum) Compare(a, b *workflow.Workflow) (float64, error) {
	for _, wf := range []*workflow.Workflow{a, b} {
		if len(wf.Modules) == 0 || wf.Modules[0].Label[0] != 'p' {
			return 0, fmt.Errorf("workflow %s reached the specialised measure unprojected", wf.ID)
		}
	}
	return versionMeasure{}.Compare(a, b)
}

func versionOf(wf *workflow.Workflow) (int, error) {
	if len(wf.Modules) == 0 {
		return 0, fmt.Errorf("workflow %s has no modules", wf.ID)
	}
	return strconv.Atoi(wf.Modules[0].Label[1:])
}

func versionWorkflow(id string, version int) *workflow.Workflow {
	return &workflow.Workflow{ID: id, Modules: []*workflow.Module{{Label: fmt.Sprintf("v%d", version)}}}
}

// TestRacePinnedReadsDuringApply runs readers against coordinator views
// while writers churn the corpus through two-phase Apply, under -race. Each
// replace bumps the content version embedded in the workflow, and the
// measure returns the version sum, so every served score proves which
// content it was computed against. The readers assert three invariants the
// coordinator documents:
//
//  1. A View is a commit-atomic frontier: generation vectors observed by
//     one reader never move backwards on any shard.
//  2. A pinned read is stable: the same View searched twice returns
//     identical results even while commits land in between.
//  3. No stale-generation score is ever served: every result's similarity
//     equals the version sum of the *pinned* query and candidate content,
//     even though the shards' score caches are small enough to churn and
//     hold entries from many generations at once, and the shards' kept
//     projected slices are replaced and pruned as the commits land.
func TestRacePinnedReadsDuringApply(t *testing.T) {
	const nIDs = 24
	ids := make([]string, nIDs)
	seed := make([]*workflow.Workflow, nIDs)
	for i := range ids {
		ids[i] = fmt.Sprintf("wf-%02d", i)
		seed[i] = versionWorkflow(ids[i], 0)
	}

	const nShards = 3
	ring, err := NewRing(nShards)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]*workflow.Workflow, nShards)
	for _, wf := range seed {
		o := ring.Owner(wf.ID)
		parts[o] = append(parts[o], wf)
	}
	shards := make([]Shard, nShards)
	tab := symtab.New()
	for i := range shards {
		// A tiny cache forces eviction to race the generation churn.
		s, err := NewLocal(i, LocalConfig{CacheSize: 128, Seed: parts[i], Symtab: tab})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		shards[i] = s
	}
	coord, err := NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close(nil)

	const (
		writers          = 2
		appliesPerWriter = 200
		readers          = 4
	)
	ctx := context.Background()
	var version atomic.Int64
	var writersDone atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersDone.Add(1)
			for i := 0; i < appliesPerWriter; i++ {
				id := ids[(w*appliesPerWriter+i)%nIDs]
				wf := versionWorkflow(id, int(version.Add(1)))
				if _, err := coord.Apply([]corpus.Op{{Kind: corpus.OpReplace, ID: id, Workflow: wf}}); err != nil {
					t.Errorf("writer %d: Apply: %v", w, err)
					return
				}
			}
		}(w)
	}

	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			lastGens := make([]uint64, nShards)
			for iter := 0; writersDone.Load() < writers; iter++ {
				v := coord.View()
				gens := v.Generations()
				for i, g := range gens {
					if g < lastGens[i] {
						t.Errorf("reader %d: shard %d generation moved backwards %d -> %d", rd, i, lastGens[i], g)
						return
					}
					lastGens[i] = g
				}

				id := ids[(rd*7+iter)%nIDs]
				query := v.Get(id)
				if query == nil {
					t.Errorf("reader %d: pinned view lost %s", rd, id)
					return
				}
				q := Query{
					Query:     query,
					QueryGen:  v.Owner(id).Generation(),
					Cacheable: true,
					K:         nIDs,
				}
				res, _, err := coord.Search(ctx, v, NewScanPrep(versionMeasure{}, 0, true), q)
				if err != nil {
					t.Errorf("reader %d: Search: %v", rd, err)
					return
				}
				qv, err := versionOf(query)
				if err != nil {
					t.Errorf("reader %d: %v", rd, err)
					return
				}
				for _, r := range res {
					cand := v.Get(r.ID)
					cv, err := versionOf(cand)
					if err != nil {
						t.Errorf("reader %d: %v", rd, err)
						return
					}
					if want := float64(qv + cv); r.Similarity != want {
						t.Errorf("reader %d: query %s vs %s scored %v, want %v: score not computed against the pinned content (stale generation served)",
							rd, id, r.ID, r.Similarity, want)
						return
					}
				}

				// The same view searched again must reproduce the results
				// exactly, however many commits landed in between.
				again, _, err := coord.Search(ctx, v, NewScanPrep(versionMeasure{}, 0, true), q)
				if err != nil {
					t.Errorf("reader %d: re-Search: %v", rd, err)
					return
				}
				if len(again) != len(res) {
					t.Errorf("reader %d: pinned re-read returned %d results, first read %d", rd, len(again), len(res))
					return
				}
				for i := range res {
					if res[i] != again[i] {
						t.Errorf("reader %d: pinned re-read diverged at rank %d: %+v then %+v", rd, i, res[i], again[i])
						return
					}
				}

				// The pair scan walks the shards' prepared slices by
				// position, so it must see exactly the pinned content.
				pairs, _, err := coord.Duplicates(ctx, v, NewScanPrep(versionMeasure{}, 0, true), 0, 1)
				if err != nil {
					t.Errorf("reader %d: Duplicates: %v", rd, err)
					return
				}
				if len(pairs) != nIDs*(nIDs-1)/2 {
					t.Errorf("reader %d: pair scan returned %d pairs, want %d", rd, len(pairs), nIDs*(nIDs-1)/2)
					return
				}
				for _, p := range pairs {
					va, errA := versionOf(v.Get(p.A))
					vb, errB := versionOf(v.Get(p.B))
					if errA != nil || errB != nil || p.Similarity != float64(va+vb) {
						t.Errorf("reader %d: pair (%s, %s) scored %v, want %d: scanned content is not the pinned view's", rd, p.A, p.B, p.Similarity, va+vb)
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()
}
