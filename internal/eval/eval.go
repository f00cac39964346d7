// Package eval is the experiment harness: it runs recovery algorithms over
// failure cases and reads the paper's metrics off their reports
// (programmability box statistics, totals normalized to RetroFlow, recovery
// percentages, controller loads, per-flow communication overhead,
// computation time); cmd/pmsim renders them as the paper's figure panels.
package eval

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/par"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// Algorithm is a named recovery algorithm. Run may return ErrNoResult to
// indicate that no solution was found within its constraints/budget (the
// paper's "Optimal cannot always have results" cases).
type Algorithm struct {
	Name string
	Run  func(inst *scenario.Instance) (*core.Solution, error)
}

// ErrNoResult marks an algorithm that produced no solution for a case;
// the harness records the absence instead of failing the whole sweep.
var ErrNoResult = errors.New("eval: no result")

// CaseResult holds every algorithm's report for one failure case. It is
// read-only once built: every statistic (ProgBox and the percentage
// accessors) is computed from Reports when it is asked for, and nothing is
// cached on it.
type CaseResult struct {
	Label    string
	Failed   []int
	Instance *scenario.Instance
	// Reports maps algorithm name to its report; algorithms that returned
	// ErrNoResult are absent.
	Reports map[string]*core.Report
}

// Report returns the named algorithm's report, or nil when it has none.
func (c *CaseResult) Report(name string) *core.Report {
	return c.Reports[name]
}

// Options tunes SweepOpts's evaluation engine. The zero value builds a
// fresh scenario context.
type Options struct {
	// Context, when non-nil, supplies the precomputed failure-independent
	// scenario state; nil builds one for the sweep. Share one Context across
	// repeated sweeps over the same deployment and workload.
	Context *scenario.Context
}

// SweepOpts runs every algorithm over every failure combination of size k and
// returns one CaseResult per case: the cases fan out over ForEachCase's
// GOMAXPROCS workers sharing one immutable scenario.Context, and the results
// land in lexicographic case order, identical (up to wall-clock Runtime
// fields) to a sequential run whatever GOMAXPROCS is.
func SweepOpts(dep *topo.Deployment, flows *flow.Set, k int, algs []Algorithm, opts Options) ([]*CaseResult, error) {
	ctx := opts.Context
	if ctx == nil {
		var err error
		ctx, err = scenario.NewContext(dep, flows)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	combos := scenario.Combinations(len(dep.Controllers), k)
	results := make([]*CaseResult, len(combos))
	err := ForEachCase(ctx, combos, func(idx int, inst *scenario.Instance) error {
		cr, err := evalCase(inst, combos[idx], algs)
		if err != nil {
			return err
		}
		results[idx] = cr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ForEachCase compiles every failure combination off the shared context with
// scenario.Context.Build and calls fn with the compiled instance under the
// case's index in combos, so results are independent of the worker count.
// The cases go out over par.For to GOMAXPROCS workers, each taking the next
// index as it frees up, which keeps the pool balanced when single cases run
// for minutes (Optimal); GOMAXPROCS=1 runs them in order on the calling
// goroutine. fn runs concurrently for distinct indices and must only touch
// state it owns (writing to its own slot of a results slice is the intended
// pattern). Errors are deterministic regardless of scheduling: the failing
// case with the lowest index wins, and a case that does not compile fails as
// "eval: case […]". The plan-store compiler and the sweep harness share this
// engine (DESIGN §10).
func ForEachCase(ctx *scenario.Context, combos [][]int, fn func(idx int, inst *scenario.Instance) error) error {
	// lowest is the lowest index that has failed so far. Cases above it are
	// skipped; a case below it still runs, because it may fail too and then
	// wins, so the error returned is the lowest failing case's whatever the
	// schedule.
	var (
		mu       sync.Mutex
		firstErr error
		lowest   atomic.Int64
	)
	lowest.Store(int64(len(combos)))
	par.For(len(combos), 0, func(idx int) {
		if int64(idx) > lowest.Load() {
			return
		}
		inst, err := ctx.Build(combos[idx])
		if err != nil {
			err = fmt.Errorf("eval: case %v: %w", combos[idx], err)
		} else {
			err = fn(idx, inst)
		}
		if err != nil {
			mu.Lock()
			if int64(idx) < lowest.Load() {
				firstErr = err
				lowest.Store(int64(idx))
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// evalCase evaluates every algorithm on one compiled instance.
func evalCase(inst *scenario.Instance, failed []int, algs []Algorithm) (*CaseResult, error) {
	cr := &CaseResult{
		Label:    inst.Label(),
		Failed:   append([]int(nil), failed...),
		Instance: inst,
		Reports:  make(map[string]*core.Report, len(algs)),
	}
	for _, alg := range algs {
		sol, err := alg.Run(inst)
		if errors.Is(err, ErrNoResult) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("eval: case %v: %s: %w", failed, alg.Name, err)
		}
		rep, err := inst.Evaluate(sol)
		if err != nil {
			return nil, fmt.Errorf("eval: case %v: %s: %w", failed, alg.Name, err)
		}
		cr.Reports[alg.Name] = rep
	}
	return cr, nil
}

// BoxStat summarizes a distribution the way the paper's box plots do.
type BoxStat struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Quartiles computes box statistics with linear interpolation between order
// statistics (the convention of matplotlib's boxplot, which the paper uses),
// read off a sorted copy of values.
func Quartiles(values []int) BoxStat {
	n := len(values)
	if n == 0 {
		return BoxStat{}
	}
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	quantile := func(q float64) float64 {
		pos := q * float64(n-1)
		r := int(pos)
		if r >= n-1 {
			return float64(sorted[n-1])
		}
		frac := pos - float64(r)
		return float64(sorted[r])*(1-frac) + float64(sorted[r+1])*frac
	}
	return BoxStat{
		Min:    float64(sorted[0]),
		Q1:     quantile(0.25),
		Median: quantile(0.5),
		Q3:     quantile(0.75),
		Max:    float64(sorted[n-1]),
		N:      n,
	}
}

// ProgBox returns the box statistics of per-flow programmability for one
// algorithm in one case (Figs. 4(a), 5(a), 6(a)), computed on each call.
// Unrecovered flows contribute zeros, as in the paper's RetroFlow whiskers.
func (c *CaseResult) ProgBox(name string) (BoxStat, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return BoxStat{}, false
	}
	return Quartiles(rep.FlowProg), true
}

// TotalProgPctOf returns an algorithm's total programmability normalized to
// a baseline algorithm's, in percent (Figs. 4(b), 5(b), 6(b)). ok is false
// when either report is missing or the baseline total is zero.
func (c *CaseResult) TotalProgPctOf(name, baseline string) (float64, bool) {
	a, b := c.Reports[name], c.Reports[baseline]
	if a == nil || b == nil || b.TotalProg == 0 {
		return 0, false
	}
	return 100 * float64(a.TotalProg) / float64(b.TotalProg), true
}

// RecoveredFlowPct returns the percentage of offline flows an algorithm
// recovered (Figs. 4(c), 5(c), 6(c)). The denominator is the recoverable
// offline flow count of the instance.
func (c *CaseResult) RecoveredFlowPct(name string) (float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return 0, false
	}
	total := c.Instance.Problem.NumFlows
	if total == 0 {
		return 0, false
	}
	return 100 * float64(rep.RecoveredFlows) / float64(total), true
}

// PerFlowOverheadMs returns the per-flow communication overhead metric
// (Figs. 4(d), 5(f), 6(f)).
func (c *CaseResult) PerFlowOverheadMs(name string) (float64, bool) {
	rep := c.Reports[name]
	if rep == nil {
		return 0, false
	}
	return rep.PerFlowOverheadMs, true
}

// RuntimePct returns an algorithm's computation time as a percentage of the
// baseline's (Fig. 7).
func (c *CaseResult) RuntimePct(name, baseline string) (float64, bool) {
	a, b := c.Reports[name], c.Reports[baseline]
	if a == nil || b == nil || b.Runtime <= 0 {
		return 0, false
	}
	return 100 * float64(a.Runtime) / float64(b.Runtime), true
}
