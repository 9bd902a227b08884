package wfsim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// TestEngineRetainsNoDepartedWorkflows: workflows that leave the engine's
// corpus — inline queries that were never ingested, removed workflows and
// replaced versions — are not kept reachable by anything the engine holds
// (projections, indexes, caches, repository storage). The engine serves 200
// inline searches and 400 remove/replace batches under the default measure,
// whose importance projection is exactly the state that could hold on to
// them; after a GC, weak pointers to every departed workflow must be nil.
func TestEngineRetainsNoDepartedWorkflows(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Repo, append(testShardOpts(t), WithIndex(1), WithScoreCache(1<<12))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	templates := c.Repo.IDs()
	// fresh builds a workflow the test keeps no reference to: a clone of a
	// corpus workflow's content under a new ID.
	fresh := func(id string, i int) *Workflow {
		wf := eng.Workflow(templates[i%len(templates)]).Clone()
		wf.ID = id
		return wf
	}
	const owned = 16
	for k := 0; k < owned; k++ {
		if _, err := eng.Apply(ctx, AddWorkflow(fresh(fmt.Sprintf("own-%d", k), k))); err != nil {
			t.Fatal(err)
		}
	}
	var departed []weak.Pointer[Workflow]
	for i := 0; i < 200; i++ {
		q := fresh(fmt.Sprintf("inline-%d", i), i+1)
		departed = append(departed, weak.Make(q))
		if _, _, err := eng.Search(ctx, q, SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
		own := fmt.Sprintf("own-%d", i%owned)
		departed = append(departed, weak.Make(eng.Workflow(own)))
		if _, err := eng.Apply(ctx, ReplaceWorkflow(fresh(own, i+2))); err != nil {
			t.Fatal(err)
		}
		tmp := fmt.Sprintf("tmp-%d", i)
		if _, err := eng.Apply(ctx, AddWorkflow(fresh(tmp, i+3))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.SearchID(ctx, own, SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
		departed = append(departed, weak.Make(eng.Workflow(tmp)))
		if _, err := eng.Apply(ctx, RemoveWorkflow(tmp)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	alive := 0
	for _, p := range departed {
		if p.Value() != nil {
			alive++
		}
	}
	if alive > 0 {
		t.Errorf("%d of %d departed workflows are still reachable from the engine", alive, len(departed))
	}
	runtime.KeepAlive(eng)
}
