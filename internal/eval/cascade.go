package eval

import (
	"errors"
	"fmt"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// Cascading-failure model (the risk the paper cites from Yao et al.,
// ICNP'13): after a recovery, an active controller whose total control load
// — its own domain plus the recovery sessions charged to it — exceeds a
// trigger fraction of its capacity fails in the next round, the recovery is
// recomputed for the enlarged failure set, and so on until the system is
// stable or nothing survives. Switch-level recovery concentrates whole-γ
// loads and is correspondingly more cascade-prone than per-flow recovery.

// CascadeRound is one iteration of the cascade.
type CascadeRound struct {
	// Failed is the cumulative failed controller set entering the round.
	Failed []int
	// Report is the recovery outcome for that set (nil if the algorithm
	// returned ErrNoResult).
	Report *core.Report
	// Overloaded lists active controllers pushed past the trigger by this
	// round's recovery; they fail before the next round.
	Overloaded []int
}

// CascadeResult is a full episode.
type CascadeResult struct {
	Rounds []CascadeRound
	// Collapsed reports that the cascade consumed all controllers.
	Collapsed bool
}

// ErrBadTrigger reports an out-of-range cascade trigger.
var ErrBadTrigger = errors.New("eval: cascade trigger must be in (0, 1]")

// Cascade simulates a cascading-failure episode starting from the initial
// failed set, recomputing the recovery with alg each round. trigger is the
// load fraction (of total capacity) beyond which an active controller fails.
func Cascade(
	dep *topo.Deployment,
	flows *flow.Set,
	initial []int,
	alg Algorithm,
	trigger float64,
) (*CascadeResult, error) {
	if trigger <= 0 || trigger > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadTrigger, trigger)
	}
	// One context serves every round.
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return nil, fmt.Errorf("eval: cascade: %w", err)
	}
	res := &CascadeResult{}
	failed := append([]int(nil), initial...)
	for {
		if len(failed) >= len(dep.Controllers) {
			res.Collapsed = true
			return res, nil
		}
		inst, err := ctx.Build(failed)
		if err != nil {
			return nil, fmt.Errorf("eval: cascade round %d: %w", len(res.Rounds), err)
		}
		round := CascadeRound{Failed: append([]int(nil), inst.Failed...)}
		sol, err := alg.Run(inst)
		if err != nil && !errors.Is(err, ErrNoResult) {
			return nil, fmt.Errorf("eval: cascade round %d: %s: %w", len(res.Rounds), alg.Name, err)
		}
		if err == nil {
			rep, err := inst.Evaluate(sol)
			if err != nil {
				return nil, fmt.Errorf("eval: cascade round %d: %w", len(res.Rounds), err)
			}
			round.Report = rep
			// Total load per active controller: own domain + recovery.
			for jj, j := range inst.Active {
				own := dep.Controllers[j].Capacity - inst.Problem.Rest[jj]
				total := own + rep.ControllerLoad[jj]
				if float64(total) > trigger*float64(dep.Controllers[j].Capacity) {
					round.Overloaded = append(round.Overloaded, j)
				}
			}
		}
		res.Rounds = append(res.Rounds, round)
		if len(round.Overloaded) == 0 {
			return res, nil
		}
		failed = append(failed, round.Overloaded...)
	}
}

// SurvivedRounds returns the number of rounds before the cascade stopped
// (equal to len(Rounds) when the system stabilized).
func (r *CascadeResult) SurvivedRounds() int { return len(r.Rounds) }

// FinalReport returns the last round's recovery report (nil if none).
func (r *CascadeResult) FinalReport() *core.Report {
	if len(r.Rounds) == 0 {
		return nil
	}
	return r.Rounds[len(r.Rounds)-1].Report
}
