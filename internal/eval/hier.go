package eval

import (
	"pmedic/internal/core"
	"pmedic/internal/region"
	"pmedic/internal/scenario"
)

// HierPM wraps the hierarchical region-sharded PM as a sweep Algorithm named
// "PM-H", so the existing harness, metrics, and figure renderers apply to it
// unchanged.
func HierPM(part *region.Partition, opts region.SolveOptions) Algorithm {
	return Algorithm{
		Name: "PM-H",
		Run: func(inst *scenario.Instance) (*core.Solution, error) {
			return region.SolvePM(inst, part, opts)
		},
	}
}
