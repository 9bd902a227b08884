package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/pkg/wfsim"
)

// Request deadlines (deadline_ms). They bound interactive calls well above
// their unloaded latency on a 2-core machine, so only a stall or a
// regression makes a request late; a late 2xx counts as failed.
const (
	searchDeadline  = 2 * time.Second
	compareDeadline = 2 * time.Second
	batchDeadline   = 5 * time.Second
	scanDeadline    = 60 * time.Second
)

// Frozen workload parameters; they do not change between commits being
// compared. batchRate is about a quarter of the writer's capacity: on a
// 2-core machine (Intel Xeon, Go 1.24), one closed-loop writer of these
// batches beside one closed-loop reader committed 160 to 192 batches/s
// (seeds 1 to 4, 10 s each), about 5.5 ms per batch. At 40 batches/s a
// batch that lands during a search waits for the cores and takes about
// 10 ms, so the writer's connection is busy 0.45 to 0.48 of the window (the
// run prints it as batch_busy_frac); every commit retires the reader's
// cached scores, and a slow spell of a shared host still leaves headroom.
const (
	batchRate     = 40 // batches/s, ingest-mixed
	batchAdds     = 8
	batchRemoves  = 8
	batchReplaces = 4
	// compactRecords is ingest-mixed's -compact-records: the log compacts
	// every 40 batches, once a second, and a run ends with the same
	// log tail to replay on every seed (a byte threshold would leave a
	// tail that depends on the sizes of the generated workflows).
	compactRecords = 40
	curateSize     = 400
	// Every corpus joins corpusParts generated ones (see generateParts).
	// query-cold's corpora keep the paper's 1483 workflows in
	// paperClusters clusters; ingest-mixed's and curate's parts have
	// paperClusters clusters each.
	corpusParts   = 4
	paperClusters = 48
	dupThreshold  = 0.9
	clusterMinSim = 0.5
	searchK       = 10
)

// wireWorkflow is the JSON shape of a workflow with its ID overridden, so a
// generated workflow can be sent under a fresh ID without mutating it.
type wireWorkflow struct {
	ID          string            `json:"id"`
	Annotations wfsim.Annotations `json:"annotations"`
	Modules     []*wfsim.Module   `json:"modules"`
	Edges       []wfsim.Edge      `json:"edges"`
}

func encodeAs(wf *wfsim.Workflow, id string) []byte {
	b, err := json.Marshal(wireWorkflow{ID: id, Annotations: wf.Annotations, Modules: wf.Modules, Edges: wf.Edges})
	if err != nil {
		panic(fmt.Sprintf("encode generated workflow %s: %v", wf.ID, err)) // generated workflows always encode
	}
	return b
}

// generateParts joins parts Taverna-profile corpora of about n/parts
// workflows and clusters latent clusters each, generated from seeds
// seed*parts to seed*parts+parts-1, renumbering IDs so they stay unique.
// The profile gives its first cluster about a fifth of the workflows, so
// that cluster's prototype sets much of the cost of a scan or a search;
// joining parts corpora averages over parts such prototypes instead of one.
func generateParts(n, parts, clusters int, seed int64) ([]byte, []*wfsim.Workflow, error) {
	var repo *wfsim.Repository
	var wfs []*wfsim.Workflow
	for k := 0; k < parts; k++ {
		p := wfsim.TavernaProfile()
		p.Workflows, p.Clusters = n/parts, clusters
		if k < n%parts {
			p.Workflows++
		}
		gc, err := wfsim.GenerateCorpus(p, seed*int64(parts)+int64(k))
		if err != nil {
			return nil, nil, err
		}
		repo = gc.Repo
		for _, wf := range gc.Repo.Workflows() {
			c := wf.Clone()
			c.ID = strconv.Itoa(1000 + len(wfs))
			wfs = append(wfs, c)
		}
	}
	if parts > 1 {
		var err error
		if repo, err = wfsim.NewRepository(wfs...); err != nil {
			return nil, nil, err
		}
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), repo.Workflows(), nil
}

// plan is everything a workload sends, derived from the seed alone.
type plan struct {
	corpusJSON []byte
	ids        []string

	// query-cold: inline query bodies from a never-ingested corpus.
	novel [][]byte

	// ingest-mixed: the writer's batches and the reader's stable IDs.
	batches []batch
	stable  []string

	baseJS map[string][]byte // baseline workflow content by ID
}

// batch is one NDJSON workflows:batch request and what it changes.
type batch struct {
	body    []byte
	lines   [][]byte // one op per line, for the in-process reference
	removes []string
	puts    map[string][]byte // added or replaced ID -> workflow JSON
}

func searchIDRequest(id string) request {
	return request{kind: "search", path: "/v1/search", ctype: "application/json", deadline: searchDeadline,
		body: fmt.Appendf(nil, `{"query_id":%q,"k":%d,"deadline_ms":%d}`, id, searchK, searchDeadline.Milliseconds())}
}

func searchInlineRequest(wf []byte) request {
	return request{kind: "search-inline", path: "/v1/search", ctype: "application/json", deadline: searchDeadline,
		body: fmt.Appendf(nil, `{"query":%s,"k":%d,"deadline_ms":%d}`, wf, searchK, searchDeadline.Milliseconds())}
}

func compareRequest(a, b string) request {
	return request{kind: "compare", path: "/v1/compare", ctype: "application/json", deadline: compareDeadline,
		body: fmt.Appendf(nil, `{"a_id":%q,"b_id":%q,"deadline_ms":%d}`, a, b, compareDeadline.Milliseconds())}
}

func dupRequest() request {
	return request{kind: "dup", path: "/v1/duplicates", ctype: "application/json", deadline: scanDeadline,
		body: fmt.Appendf(nil, `{"threshold":%v,"deadline_ms":%d}`, dupThreshold, scanDeadline.Milliseconds())}
}

func clusterRequest() request {
	return request{kind: "cluster", path: "/v1/cluster", ctype: "application/json", deadline: scanDeadline,
		body: fmt.Appendf(nil, `{"min_similarity":%v,"deadline_ms":%d}`, clusterMinSim, scanDeadline.Milliseconds())}
}

// batchRequest carries deadline_ms as a query parameter: the NDJSON body has
// no place for it. The server does not read it today; the client still
// counts an acknowledgement that arrives after it as failed.
func batchRequest(b batch) request {
	return request{kind: "batch", path: fmt.Sprintf("/v1/workflows:batch?deadline_ms=%d", batchDeadline.Milliseconds()),
		ctype: "application/x-ndjson", deadline: batchDeadline, body: b.body}
}

// makePlan derives a workload's inputs from seed. seconds sizes the
// writer's schedule.
func makePlan(w *workload, seed int64, seconds float64) (*plan, error) {
	js, wfs, err := generateParts(1483, corpusParts, paperClusters/corpusParts, seed)
	switch w.name {
	case "ingest-mixed":
		js, wfs, err = generateParts(1483, corpusParts, paperClusters, seed)
	case "curate":
		js, wfs, err = generateParts(curateSize, corpusParts, paperClusters, seed)
	}
	if err != nil {
		return nil, err
	}
	p := &plan{corpusJSON: js, baseJS: map[string][]byte{}}
	for _, wf := range wfs {
		p.ids = append(p.ids, wf.ID)
		p.baseJS[wf.ID] = encodeAs(wf, wf.ID)
	}
	rng := rand.New(rand.NewSource(seed))
	switch w.name {
	case "query-cold":
		_, novel, err := generateParts(1483, corpusParts, paperClusters/corpusParts, seed+1)
		if err != nil {
			return nil, err
		}
		for i, wf := range novel {
			p.novel = append(p.novel, encodeAs(wf, fmt.Sprintf("q%d", i)))
		}
	case "ingest-mixed":
		if err := p.planIngest(rng, seed, int(seconds*batchRate)+1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// planIngest builds the writer's batches: each adds batchAdds novel
// workflows, removes batchRemoves of the oldest removable workflows (first
// half of the baseline, then earlier adds) and replaces batchReplaces
// stable workflows with novel content, so the corpus size stays fixed. The
// reader only queries stable IDs, which every batch leaves present. The
// novel content joins corpusParts corpora, as the baseline does, and is
// shuffled, so the added half of the corpus the reader searches mixes them
// at every point of the run.
func (p *plan) planIngest(rng *rand.Rand, seed int64, n int) error {
	_, pool, err := generateParts(1483, corpusParts, paperClusters, seed+2)
	if err != nil {
		return err
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	perm := rng.Perm(len(p.ids))
	half := len(perm) / 2
	var queue []string
	for _, i := range perm[:half] {
		queue = append(queue, p.ids[i])
	}
	for _, i := range perm[half:] {
		p.stable = append(p.stable, p.ids[i])
	}
	next := 0
	content := func() *wfsim.Workflow {
		wf := pool[next%len(pool)]
		next++
		return wf
	}
	for b := 0; b < n; b++ {
		bt := batch{puts: map[string][]byte{}}
		add := func(line []byte) {
			bt.lines = append(bt.lines, line)
			bt.body = append(append(bt.body, line...), '\n')
		}
		for i := 0; i < batchRemoves; i++ {
			id := queue[0]
			queue = queue[1:]
			bt.removes = append(bt.removes, id)
			add(fmt.Appendf(nil, `{"op":"remove","id":%q}`, id))
		}
		for i := 0; i < batchAdds; i++ {
			id := fmt.Sprintf("n%d", next)
			js := encodeAs(content(), id)
			bt.puts[id] = js
			queue = append(queue, id)
			add(fmt.Appendf(nil, `{"op":"add","workflow":%s}`, js))
		}
		for _, i := range rng.Perm(len(p.stable))[:batchReplaces] {
			id := p.stable[i]
			js := encodeAs(content(), id)
			bt.puts[id] = js
			add(fmt.Appendf(nil, `{"op":"replace","workflow":%s}`, js))
		}
		p.batches = append(p.batches, bt)
	}
	return nil
}

// decodeWorkflow parses workflow JSON as the server would.
func decodeWorkflow(js []byte) (*wfsim.Workflow, error) {
	wf := &wfsim.Workflow{}
	if err := json.Unmarshal(js, wf); err != nil {
		return nil, err
	}
	return wf, wf.Validate()
}

// mutations turns a batch's NDJSON lines into engine mutations, decoding
// the same bytes the server received.
func (b batch) mutations() ([]wfsim.Mutation, error) {
	var out []wfsim.Mutation
	for _, line := range b.lines {
		var op struct {
			Op       string          `json:"op"`
			ID       string          `json:"id"`
			Workflow json.RawMessage `json:"workflow"`
		}
		if err := json.Unmarshal(line, &op); err != nil {
			return nil, err
		}
		if op.Op == "remove" {
			out = append(out, wfsim.RemoveWorkflow(op.ID))
			continue
		}
		wf, err := decodeWorkflow(op.Workflow)
		if err != nil {
			return nil, err
		}
		if op.Op == "add" {
			out = append(out, wfsim.AddWorkflow(wf))
		} else {
			out = append(out, wfsim.ReplaceWorkflow(wf))
		}
	}
	return out, nil
}
