package core

// Test-only exports: the property test in agg_test.go pins the per-flow and
// class-aggregated PM paths against each other regardless of the dispatch
// threshold in PM.

var PMFlat = pmFlat

// PMAgg forces the aggregated PM path; it returns false when the problem has
// no usable class index (a flow with more than 64 pairs).
func PMAgg(p *Problem) (*Solution, bool, error) {
	ci := p.classIndexOf()
	if ci == nil {
		return nil, false, nil
	}
	s, err := pmAgg(p, ci)
	return s, true, err
}

// ClassIndexVsReference rebuilds p's class index and checks it against the
// sort-based reference in classes_test.go, up to class renumbering.
var ClassIndexVsReference = classIndexVsReference

// NumClasses exposes the class count for tests and diagnostics.
func NumClasses(p *Problem) int { return p.ClassCount() }

// HasClassIndex reports whether p carries a cached class index (usable or the
// unusable sentinel); DropClassIndex forgets it, so the next solve that wants
// one pays for it again.
func HasClassIndex(p *Problem) bool { return p.classes != nil }

func DropClassIndex(p *Problem) { p.classes = nil }

// AggMinFlows is PM's dispatch threshold.
const AggMinFlows = aggMinFlows
