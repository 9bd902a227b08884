package module

import (
	"repro/internal/matching"
	"repro/internal/workflow"
)

// Preselect is a module-pair preselection strategy (Section 2.1.5): it
// decides which pairs from the Cartesian product of two module sets are
// candidates for comparison at all. Excluded pairs receive similarity 0
// without being compared, which both restricts the mapping and reduces
// runtime (the paper reports a 2.3x reduction in pairwise comparisons
// for type equivalence).
type Preselect int

const (
	// AllPairs compares every pair (the paper's "ta").
	AllPairs Preselect = iota
	// TypeMatch requires strict equality of module types ("tm").
	TypeMatch
	// TypeEquivalence requires membership in the same type-equivalence
	// class ("te"), after the categorisation of Wassink et al. 2009.
	TypeEquivalence
)

// String returns the notation token used in algorithm names.
func (p Preselect) String() string {
	switch p {
	case AllPairs:
		return "ta"
	case TypeMatch:
		return "tm"
	case TypeEquivalence:
		return "te"
	}
	return "t?"
}

// TypeClass is an equivalence class of module types.
type TypeClass int

// Equivalence classes over module types. The web-service class absorbs the
// many spellings under which Taverna types web services ('wsdl',
// 'arbitrarywsdl', 'soaplabwsdl', ...), which motivated the te strategy.
const (
	ClassWebService TypeClass = iota
	ClassScript
	ClassLocal
	ClassDataflow
	ClassTool
	ClassOther
)

// String implements fmt.Stringer.
func (c TypeClass) String() string {
	switch c {
	case ClassWebService:
		return "webservice"
	case ClassScript:
		return "script"
	case ClassLocal:
		return "local"
	case ClassDataflow:
		return "dataflow"
	case ClassTool:
		return "tool"
	}
	return "other"
}

// ClassOf maps a module type identifier to its equivalence class.
func ClassOf(typ string) TypeClass {
	switch typ {
	case workflow.TypeWSDL, workflow.TypeArbitraryWSDL, workflow.TypeSoaplabWSDL,
		workflow.TypeBioMoby, workflow.TypeRESTService:
		return ClassWebService
	case workflow.TypeBeanshell, workflow.TypeRShell, workflow.TypeScript:
		return ClassScript
	case workflow.TypeLocalWorker, workflow.TypeStringConst,
		workflow.TypeXMLSplitter, workflow.TypeXMLMerger:
		return ClassLocal
	case workflow.TypeDataflow:
		return ClassDataflow
	case workflow.TypeTool:
		return ClassTool
	}
	return ClassOther
}

// Allows reports whether the pair (a, b) is a candidate for comparison
// under the strategy.
func (p Preselect) Allows(a, b *workflow.Module) bool {
	switch p {
	case AllPairs:
		return true
	case TypeMatch:
		if a.TypeID != 0 && b.TypeID != 0 {
			return a.TypeID == b.TypeID
		}
		return a.Type == b.Type
	case TypeEquivalence:
		return ClassOf(a.Type) == ClassOf(b.Type)
	}
	return false
}

// PairStats reports how many module pairs a strategy admits out of the
// Cartesian product — the quantity behind the paper's reported 2.3x
// comparison reduction.
type PairStats struct {
	Total    int // |V1| * |V2|
	Compared int // pairs admitted by the preselection
}

// WeightMatrix computes the dense module-similarity matrix between the
// module sets of two workflows under the given scheme and preselection.
// Pairs excluded by the preselection get weight 0 without being compared.
// It returns the matrix together with comparison statistics.
func WeightMatrix(a, b *workflow.Workflow, s Scheme, p Preselect) (matching.Weights, PairStats) {
	return weightMatrixModules(a.Modules, b.Modules, s, p, nil)
}

// WeightMatrixFor computes the similarity matrix between two explicit module
// sequences (used for path-wise comparison, where the sequences are the
// modules along two paths).
func WeightMatrixFor(a, b []*workflow.Module, s Scheme, p Preselect) (matching.Weights, PairStats) {
	return weightMatrixModules(a, b, s, p, nil)
}

func weightMatrixModules(ma, mb []*workflow.Module, s Scheme, p Preselect, memo *SimMemo) (matching.Weights, PairStats) {
	flat, stats := fillWeights(make([]float64, len(ma)*len(mb)), ma, mb, s, p, memo)
	return matching.Rows(flat, len(ma), len(mb)), stats
}

// fillWeights writes the module-similarity matrix of ma × mb row-major into
// dst, which holds exactly len(ma)*len(mb) cells; pairs the preselection
// excludes get weight 0. It returns dst and the comparison statistics.
//
//wfsimvet:hotpath
func fillWeights(dst []float64, ma, mb []*workflow.Module, s Scheme, p Preselect, memo *SimMemo) ([]float64, PairStats) {
	stats := PairStats{Total: len(ma) * len(mb)}
	m := len(mb)
	for i, x := range ma {
		row := dst[i*m : (i+1)*m]
		for j, y := range mb {
			if !p.Allows(x, y) {
				row[j] = 0
				continue
			}
			stats.Compared++
			row[j] = s.SimilarityMemo(x, y, memo)
		}
	}
	return dst, stats
}
