package core

// Test-only exports: the property test in agg_test.go pins the per-flow and
// class-aggregated solver paths against each other regardless of the
// dispatch thresholds in PM/PG.

var (
	PMFlat        = pmFlat
	PGFlat        = pgFlat
	RetroFlowFlat = retroFlowFlat
)

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

// PGAgg forces the aggregated PG path.
func PGAgg(p *Problem) (*Solution, bool, error) {
	ci := p.classIndexOf()
	if ci == nil {
		return nil, false, nil
	}
	s, err := pgAgg(p, ci)
	return s, true, err
}

// RetroFlowAgg forces the aggregated RetroFlow path.
func RetroFlowAgg(p *Problem) (*Solution, bool, error) {
	ci := p.classIndexOf()
	if ci == nil {
		return nil, false, nil
	}
	s, err := retroFlowAgg(p, ci)
	return s, true, err
}

// ClassIndexVsReference checks groupBySignature against the sort-based
// reference in classes_test.go, over the real signature hash or a constant.
var ClassIndexVsReference = classIndexVsReference

// NumClasses exposes the class count for tests and diagnostics.
func NumClasses(p *Problem) int { return p.ClassCount() }
