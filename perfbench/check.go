package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/pkg/wfsim"
)

// newReference builds the in-process reference engine: the deployment's
// options (index with min-shared 1, 65536-entry score cache, one shard,
// default measure) over the same corpus bytes the server loaded. It keeps
// no data directory, which does not change any score.
func newReference(corpusJSON []byte) (*wfsim.Engine, error) {
	repo, err := wfsim.ReadRepository(bytes.NewReader(corpusJSON))
	if err != nil {
		return nil, err
	}
	return wfsim.New(repo, wfsim.WithIndex(1), wfsim.WithScoreCache(1<<16))
}

type searchResp struct {
	Results []struct {
		ID         string  `json:"id"`
		Similarity float64 `json:"similarity"`
	} `json:"results"`
	Stats struct {
		Generation uint64 `json:"generation"`
	} `json:"stats"`
}

// referenceSearch answers a search request body on ref.
func referenceSearch(ctx context.Context, ref *wfsim.Engine, body []byte) ([]wfsim.Result, error) {
	var req struct {
		QueryID string          `json:"query_id"`
		Query   json.RawMessage `json:"query"`
		K       int             `json:"k"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	opts := wfsim.SearchOptions{K: req.K}
	if req.QueryID != "" {
		res, _, err := ref.SearchID(ctx, req.QueryID, opts)
		return res, err
	}
	q, err := decodeWorkflow(req.Query)
	if err != nil {
		return nil, err
	}
	res, _, err := ref.Search(ctx, q, opts)
	return res, err
}

// sameResults compares a served result list with the reference: same IDs in
// the same order and bit-equal float64 scores.
func sameResults(got searchResp, want []wfsim.Result) error {
	if len(got.Results) != len(want) {
		return fmt.Errorf("%d results, reference has %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.ID != want[i].ID || math.Float64bits(r.Similarity) != math.Float64bits(want[i].Similarity) {
			return fmt.Errorf("result %d is (%s, %v), reference (%s, %v)", i, r.ID, r.Similarity, want[i].ID, want[i].Similarity)
		}
	}
	return nil
}

// compareIDs is the pair a compare request names.
type compareIDs struct {
	A string `json:"a_id"`
	B string `json:"b_id"`
}

// sameScores compares a served compare body with want: same measures, same
// failures, bit-equal scores.
func sameScores(ids compareIDs, body []byte, want []wfsim.Score) error {
	var got struct {
		Scores []struct {
			Measure    string  `json:"measure"`
			Similarity float64 `json:"similarity"`
			Error      string  `json:"error"`
		} `json:"scores"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode compare response: %w", err)
	}
	if len(got.Scores) != len(want) {
		return fmt.Errorf("compare %s/%s: %d scores, reference has %d", ids.A, ids.B, len(got.Scores), len(want))
	}
	for i, s := range got.Scores {
		w := want[i]
		if s.Measure != w.Measure || (s.Error != "") != (w.Err != nil) ||
			(w.Err == nil && math.Float64bits(s.Similarity) != math.Float64bits(w.Similarity)) {
			return fmt.Errorf("compare %s/%s %s: served (%v, %q), reference (%v, %v)", ids.A, ids.B, w.Measure, s.Similarity, s.Error, w.Similarity, w.Err)
		}
	}
	return nil
}

// curateReference holds the reference answers of the curate workload; every
// response is checked against them.
type curateReference struct {
	pairs    []wfsim.Pair
	clusters [][]string
}

func newCurateReference(ctx context.Context, ref *wfsim.Engine) (*curateReference, error) {
	pairs, _, err := ref.Duplicates(ctx, dupThreshold, wfsim.DuplicateOptions{})
	if err != nil {
		return nil, err
	}
	minSim := clusterMinSim
	cr, err := ref.Cluster(ctx, wfsim.ClusterOptions{MinSimilarity: &minSim})
	if err != nil {
		return nil, err
	}
	return &curateReference{pairs: pairs, clusters: cr.Clusters}, nil
}

func (c *curateReference) check(kind string, body []byte) error {
	switch kind {
	case "dup":
		var got struct {
			Pairs []struct {
				A          string  `json:"a"`
				B          string  `json:"b"`
				Similarity float64 `json:"similarity"`
			} `json:"pairs"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Pairs) != len(c.pairs) {
			return fmt.Errorf("duplicates: %d pairs, reference has %d", len(got.Pairs), len(c.pairs))
		}
		for i, p := range got.Pairs {
			w := c.pairs[i]
			if p.A != w.A || p.B != w.B || math.Float64bits(p.Similarity) != math.Float64bits(w.Similarity) {
				return fmt.Errorf("duplicates pair %d: (%s, %s, %v), reference (%s, %s, %v)", i, p.A, p.B, p.Similarity, w.A, w.B, w.Similarity)
			}
		}
	case "cluster":
		var got struct {
			Clusters [][]string `json:"clusters"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !slices.EqualFunc(got.Clusters, c.clusters, slices.Equal[[]string]) {
			return fmt.Errorf("cluster: %d clusters differ from the reference's %d", len(got.Clusters), len(c.clusters))
		}
	}
	return nil
}

// sameWorkflow compares two workflow JSON documents by content.
func sameWorkflow(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return reflect.DeepEqual(x, y)
}

// corpusState is the content the acknowledged op log implies.
type corpusState struct {
	gen     uint64
	content map[string][]byte
	removed []string
}

// checkState compares the served generation, size and a sample of
// workflows (present ones by content, removed ones by absence) with want.
func checkState(ctx context.Context, c *client, want *corpusState, sample []string) error {
	var st struct {
		Generation uint64 `json:"generation"`
		Workflows  int    `json:"workflows"`
	}
	if _, err := c.getJSON(ctx, "/v1/stats", &st); err != nil {
		return err
	}
	if st.Generation != want.gen || st.Workflows != len(want.content) {
		return fmt.Errorf("state: generation %d with %d workflows, op log implies %d with %d", st.Generation, st.Workflows, want.gen, len(want.content))
	}
	for _, id := range sample {
		var got struct {
			Workflow json.RawMessage `json:"workflow"`
		}
		status, err := c.getJSON(ctx, "/v1/workflows/"+id, &got)
		if err != nil {
			return err
		}
		js, present := want.content[id]
		switch {
		case present && status != 200:
			return fmt.Errorf("workflow %s: status %d, op log says present", id, status)
		case !present && status != 404:
			return fmt.Errorf("workflow %s: status %d, op log says removed", id, status)
		case present && !sameWorkflow(got.Workflow, js):
			return fmt.Errorf("workflow %s: content differs from the op log", id)
		}
	}
	return nil
}
