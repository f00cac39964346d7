package scenario

import (
	"fmt"

	"pmedic/internal/flow"
	"pmedic/internal/topo"
)

// Step is one stage of a successive-failure episode: the controller that
// failed at this step and the instance compiled for the cumulative set.
type Step struct {
	// NewlyFailed is the controller index that failed at this step.
	NewlyFailed int
	// Failed is the cumulative failed set, ascending.
	Failed []int
	// Instance is the FMSSM case for the cumulative set.
	Instance *Instance
}

// BuildSuccessive compiles the episode in which the given controllers fail
// one after another (the paper's "fail successively" setting): step t's
// instance covers the first t+1 failures. At least one controller must
// survive the whole episode.
func BuildSuccessive(dep *topo.Deployment, flows *flow.Set, order []int) ([]*Step, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("%w: empty failure order", ErrBadCase)
	}
	if len(order) >= len(dep.Controllers) {
		return nil, fmt.Errorf("%w: %d successive failures would kill all %d controllers",
			ErrBadCase, len(order), len(dep.Controllers))
	}
	// One Context serves the whole episode: the steps differ only in which
	// controllers have failed.
	ctx, err := NewContext(dep, flows)
	if err != nil {
		return nil, fmt.Errorf("scenario: successive step 1: %w", err)
	}
	steps := make([]*Step, 0, len(order))
	var cumulative []int
	for _, j := range order {
		cumulative = append(cumulative, j)
		inst, err := ctx.Build(cumulative)
		if err != nil {
			return nil, fmt.Errorf("scenario: successive step %d: %w", len(cumulative), err)
		}
		st := &Step{
			NewlyFailed: j,
			Failed:      append([]int(nil), inst.Failed...),
			Instance:    inst,
		}
		steps = append(steps, st)
	}
	return steps, nil
}
