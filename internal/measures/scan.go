package measures

import (
	"sync"

	"repro/internal/module"
	"repro/internal/workflow"
)

// Specialisable is implemented by measures that can be specialised for a
// whole-repository scan: the scan driver hoists the importance projection out
// of the per-pair Compare (projecting each workflow once per scan instead of
// once per pair) and installs a scan-scoped memo for repeated attribute
// comparisons. The specialised measure returns bit-identical scores; only
// redundant work is removed.
type Specialisable interface {
	// Specialise returns the projection to apply per workflow (nil when the
	// measure has none) and a measure that compares PRE-PROJECTED workflows
	// with the memo installed. The returned measure keeps the original
	// Name(), so stats and cache keys are unaffected.
	Specialise(memo *module.SimMemo) (Projector, Measure)
}

// Specialise implements Specialisable for structural measures.
func (s *Structural) Specialise(memo *module.SimMemo) (Projector, Measure) {
	cfg := s.cfg
	project := cfg.Project
	cfg.Project = nil
	cfg.Memo = memo
	return project, &renamed{inner: NewStructural(cfg), name: s.Name()}
}

// renamed preserves the un-specialised measure's notation name (e.g. the
// "ip" of a projection hoisted out by Specialise) on the specialised inner
// measure.
type renamed struct {
	inner Measure
	name  string
}

func (r *renamed) Name() string { return r.name }

func (r *renamed) Compare(a, b *workflow.Workflow) (float64, error) {
	return r.inner.Compare(a, b)
}

// Specialise implements Specialisable for ensembles. Members need different
// inputs (an annotation measure reads the original workflow, an "ip" member
// its projection), so no projection is hoisted for the ensemble as a
// whole: each specialisable member is specialised with the scan's memo, and
// its projection runs at most once per workflow for the duration of the
// scan. Projection is pure, so scores are bit-identical.
func (e *Ensemble) Specialise(memo *module.SimMemo) (Projector, Measure) {
	members := make([]Measure, len(e.members))
	for i, m := range e.members {
		members[i] = m
		sp, ok := m.(Specialisable)
		if !ok {
			continue
		}
		project, inner := sp.Specialise(memo)
		members[i] = inner
		if project != nil {
			members[i] = &scanProjected{inner: inner, project: project}
		}
	}
	return nil, &Ensemble{members: members, weights: e.weights}
}

// scanProjected compares workflows under a projection it keeps per workflow
// for the lifetime of one scan.
type scanProjected struct {
	inner   Measure
	project Projector
	seen    sync.Map // *workflow.Workflow -> its projection
}

func (p *scanProjected) Name() string { return p.inner.Name() }

func (p *scanProjected) Compare(a, b *workflow.Workflow) (float64, error) {
	return p.inner.Compare(p.projectOnce(a), p.projectOnce(b))
}

func (p *scanProjected) projectOnce(wf *workflow.Workflow) *workflow.Workflow {
	if proj, ok := p.seen.Load(wf); ok {
		return proj.(*workflow.Workflow)
	}
	proj := p.project(wf)
	p.seen.Store(wf, proj)
	return proj
}
