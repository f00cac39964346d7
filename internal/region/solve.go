package region

import (
	"fmt"
	"slices"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/par"
	"pmedic/internal/scenario"
)

// SolveOptions tunes the hierarchical solve.
type SolveOptions struct {
	// Workers bounds the number of regions solved concurrently. 0 selects
	// one worker per available CPU; 1 forces a sequential solve. The output
	// is byte-identical regardless of the worker count: region solves are
	// independent and merge into disjoint index ranges.
	Workers int
	// ImproveRounds bounds the rounds of the anytime improver (core.Improve)
	// after the coordinator; 0 runs none, leaving only Improve's unmapping of
	// idle switches. The deadline is counted in rounds, so a given (instance,
	// partition, ImproveRounds) is fully deterministic.
	ImproveRounds int
}

// SolvePM solves one failure instance hierarchically:
//
//  1. Project the failure onto the partition; only touched regions (those
//     holding offline switches) are solved at all.
//  2. Slice the problem per touched region — region-local switches, flows,
//     and controller capacity — and run the flat/aggregated PM on each slice,
//     concurrently on par.For. Each slice is a Problem of its
//     own and indexes its flow classes itself, so the workers share nothing
//     they write.
//  3. Merge the per-region solutions (disjoint by construction) and run the
//     border coordinator: whole-switch moves of border switches — plus any
//     switch stranded in a region with no surviving controller — to
//     adjacent-region controllers with spare capacity.
//  4. End in core.Improve: at most ImproveRounds rounds of the anytime
//     improver, then PM's terminal unmapping of idle switches.
//
// With K=1 the single slice is the whole problem, the coordinator has no
// cross-region pair to consider, and the improver starts from PM quiescence:
// the output is byte-identical to flat core.PM (TestHierK1MatchesFlatPM).
func SolvePM(inst *scenario.Instance, part *Partition, opts SolveOptions) (*core.Solution, error) {
	start := time.Now()
	p := inst.Problem
	proj, err := inst.Project(part.NodeRegion, part.ControllerRegion, part.K)
	if err != nil {
		return nil, fmt.Errorf("region: %w", err)
	}
	s := core.NewSolution("PM-H", p)

	type job struct {
		sl  *core.Slice
		sub *core.Solution
		err error
	}
	jobs := make([]job, len(proj.Touched))
	solveRegion := func(_, x int) {
		r := proj.Touched[x]
		keepSw := make([]bool, p.NumSwitches)
		for i, ri := range proj.SwitchGroup {
			keepSw[i] = ri == r
		}
		keepCtl := make([]bool, p.NumControllers)
		any := false
		for jj, rj := range proj.ControllerGroup {
			if rj == r {
				keepCtl[jj] = true
				any = true
			}
		}
		if !any {
			// Orphan region: every controller in it failed. Its switches stay
			// unmapped here; the coordinator hands them to neighbors.
			return
		}
		sl, err := p.Slice(keepSw, keepCtl)
		if err != nil || sl == nil {
			jobs[x].err = err
			return
		}
		sub, err := core.PM(sl.Sub)
		if err != nil {
			jobs[x].err = err
			return
		}
		jobs[x].sl, jobs[x].sub = sl, sub
	}

	par.For(len(jobs), opts.Workers, solveRegion)
	for x := range jobs {
		if jobs[x].err != nil {
			return nil, fmt.Errorf("region %d: %w", proj.Touched[x], jobs[x].err)
		}
	}
	// Merge order is fixed (touched ascending) and the target ranges are
	// disjoint, so the merged solution is scheduling-independent.
	for x := range jobs {
		if jobs[x].sl != nil {
			jobs[x].sl.MergeInto(s, jobs[x].sub)
		}
	}

	coordinate(p, s, proj, part, inst)

	if _, err := core.Improve(p, s, opts.ImproveRounds); err != nil {
		return nil, fmt.Errorf("region: improve: %w", err)
	}
	s.Runtime = time.Since(start)
	return s, nil
}

// coordinate is the top-level pass that moves only spare capacity and
// border-switch assignments across regions: a border switch (or any switch of
// an orphan region) whose own region cannot fund more of its pairs may be
// adopted — whole, preserving the single-controller mapping — by an
// adjacent region's controller with spare capacity, and the freed or spare
// capacity immediately funds the switch's inactive pairs, highest p̄ first.
// Interior switches of healthy regions are never touched, so the pass cost is
// proportional to the border, not the WAN. At K=1 there are no cross-region
// candidates and the pass is a no-op.
func coordinate(p *core.Problem, s *core.Solution, proj *scenario.Projection, part *Partition, inst *scenario.Instance) {
	// Residual capacity and per-switch pair counts from the merged solution.
	rest := make([]int, p.NumControllers)
	copy(rest, p.Rest)
	activated := make([]int, p.NumSwitches)
	inactive := make([]int, p.NumSwitches)
	for k, pr := range p.Pairs {
		if s.Active[k] {
			activated[pr.Switch]++
			rest[s.SwitchController[pr.Switch]]--
		} else {
			inactive[pr.Switch]++
		}
	}

	// Regions with no surviving controller: their switches may go anywhere.
	hasCtl := make([]bool, part.K)
	for _, rj := range proj.ControllerGroup {
		hasCtl[rj] = true
	}
	adjacent := func(ra, rb int) bool {
		for _, r := range part.Adjacent[ra] {
			if r == rb {
				return true
			}
		}
		return false
	}

	var scratch []int
	fund := func(i, jj int) {
		// Activate switch i's inactive pairs p̄-descending (pair index breaks
		// ties) while the adopting controller has capacity.
		scratch = scratch[:0]
		for k, hi := p.SwitchRun(i); k < hi; k++ {
			if !s.Active[k] {
				scratch = append(scratch, k)
			}
		}
		slices.SortFunc(scratch, func(a, b int) int {
			if d := p.Pairs[b].PBar - p.Pairs[a].PBar; d != 0 {
				return d
			}
			return a - b
		})
		for _, k := range scratch {
			if rest[jj] <= 0 {
				break
			}
			s.Active[k] = true
			rest[jj]--
			activated[i]++
			inactive[i]--
		}
	}

	budget := 4 * p.NumSwitches
	for moved := true; moved && budget > 0; {
		moved = false
		budget--
		for i := 0; i < p.NumSwitches; i++ {
			if inactive[i] == 0 {
				continue
			}
			ri := proj.SwitchGroup[i]
			orphan := !hasCtl[ri]
			if !orphan && !part.IsBorder(inst.Switches[i]) {
				continue
			}
			j := s.SwitchController[i]
			stay := 0
			if j >= 0 {
				stay = min(rest[j], inactive[i])
			}
			bestJ, bestGain := -1, 0
			for jj := 0; jj < p.NumControllers; jj++ {
				rj := proj.ControllerGroup[jj]
				if rj == ri || rest[jj] < activated[i] {
					continue
				}
				if !orphan && !adjacent(ri, rj) {
					continue
				}
				gain := min(rest[jj]-activated[i], inactive[i]) - stay
				if gain > bestGain ||
					(gain == bestGain && bestJ >= 0 &&
						(p.Delay[i][jj] < p.Delay[i][bestJ] ||
							(p.Delay[i][jj] == p.Delay[i][bestJ] && jj < bestJ))) {
					bestGain, bestJ = gain, jj
				}
			}
			if bestJ < 0 {
				continue
			}
			if j >= 0 {
				rest[j] += activated[i]
			}
			rest[bestJ] -= activated[i]
			s.SwitchController[i] = bestJ
			fund(i, bestJ)
			moved = true
		}
	}
}
