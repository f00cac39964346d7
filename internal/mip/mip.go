// Package mip solves mixed-integer linear programs by LP-based branch &
// bound: best-first bulk-synchronous search with most-fractional branching,
// LP bound pruning, a root rounding heuristic, warm-started node
// relaxations, and wall-clock/node budgets. Each round expands the K best
// open nodes — in parallel across Options.Workers goroutines — and merges
// the results in a fixed order, so the outcome is identical for any worker
// count given the same node budget. Together with package lp it forms the
// reproduction's stand-in for the GUROBI solver the paper uses for the
// Optimal comparator.
package mip

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pmedic/internal/lp"
	"pmedic/internal/par"
)

// Model is a MIP under construction: a linear model plus integrality marks.
type Model struct {
	lpm     *lp.Model
	sense   lp.Sense
	integer []bool
	objs    []float64
	rows    []savedRow
}

type savedRow struct {
	op    lp.Op
	rhs   float64
	terms []lp.Term
}

// NewModel returns an empty model with the given sense.
func NewModel(sense lp.Sense) *Model {
	return &Model{lpm: lp.NewModel(sense), sense: sense}
}

// AddVar appends a variable; integer marks it integral.
func (m *Model) AddVar(lower, upper, obj float64, name string, integer bool) int {
	v := m.lpm.AddVar(lower, upper, obj, name)
	m.integer = append(m.integer, integer)
	m.objs = append(m.objs, obj)
	return v
}

// AddBinary appends a {0,1} variable.
func (m *Model) AddBinary(obj float64, name string) int {
	return m.AddVar(0, 1, obj, name, true)
}

// AddRow appends a linear constraint.
func (m *Model) AddRow(op lp.Op, rhs float64, terms ...lp.Term) error {
	if err := m.lpm.AddRow(op, rhs, terms...); err != nil {
		return err
	}
	cp := make([]lp.Term, len(terms))
	copy(cp, terms)
	m.rows = append(m.rows, savedRow{op: op, rhs: rhs, terms: cp})
	return nil
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return m.lpm.NumVars() }

// SolveRelaxation solves the model's LP relaxation (integrality dropped)
// with the current bounds, exposing the relaxation's solution and duals.
func (m *Model) SolveRelaxation(opts lp.Options) (*lp.Solution, error) {
	return m.lpm.SolveWith(opts)
}

// Status is a solve outcome.
type Status int

// Solve outcomes.
const (
	// StatusOptimal: the tree was exhausted; the incumbent is optimal.
	StatusOptimal Status = iota + 1
	// StatusFeasible: the search is incomplete — a budget ran out, or a
	// node's relaxation hit the LP iteration limit and could not be
	// explored; the incumbent is feasible but not proved optimal.
	StatusFeasible
	// StatusInfeasible: the tree was exhausted without any integer-feasible
	// solution.
	StatusInfeasible
	// StatusUnknown: the search is incomplete (as for StatusFeasible) and no
	// integer-feasible solution was found.
	StatusUnknown
	// StatusUnbounded: the LP relaxation is unbounded.
	StatusUnbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnknown:
		return "unknown"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("mip.Status(%d)", int(s))
	}
}

// Result is the outcome of a Solve.
type Result struct {
	Status    Status
	Objective float64
	X         []float64
	// Bound is the best proven bound on the optimum (an upper bound when
	// maximizing); Gap is |Objective−Bound| relative to |Objective| when an
	// incumbent exists.
	Bound float64
	Gap   float64
	Nodes int
	// LP sums the counters of every node relaxation solved.
	LP LPWork
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
}

// LPWork is the simplex work behind a search: iterations (dual-repair pivots
// included), basis refactorizations, and the relaxations by how they started
// (lp.Start). It does not depend on Options.Workers.
type LPWork struct {
	Iters     int `json:"iterations"`
	Refactors int `json:"refactorizations"`
	Cold      int `json:"cold"`
	Warm      int `json:"warm"`
	Repaired  int `json:"warmRepaired"`
	Certified int `json:"certifiedInfeasible"`
}

func (w *LPWork) add(sol *lp.Solution) {
	w.Iters += sol.Iters
	w.Refactors += sol.Refactors
	switch sol.Start {
	case lp.StartCold:
		w.Cold++
	case lp.StartWarm:
		w.Warm++
	case lp.StartRepaired:
		w.Repaired++
	case lp.StartCertified:
		w.Certified++
	}
}

// Options tunes the search; the zero value selects defaults.
type Options struct {
	// TimeLimit bounds wall-clock time, checked between frontier rounds
	// (default: none). It is the one nondeterministic stop: under a pure
	// node budget the search result is independent of wall-clock speed.
	TimeLimit time.Duration
	// MaxNodes bounds explored nodes (default 1 000 000).
	MaxNodes int
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Workers sets how many goroutines expand frontier nodes concurrently
	// (default 1). The frontier width and all selection/merge decisions are
	// independent of Workers, so the result — incumbent, objective, bound,
	// node count, status — is identical for any worker count given the same
	// node budget.
	Workers int
	// Incumbent optionally warm-starts the search with a known point. It is
	// validated against bounds, integrality, and rows; an infeasible warm
	// start is silently ignored.
	Incumbent []float64
	// Heuristic, when set, is called on relaxation points (at the root and
	// periodically during the search) to propose integer-feasible candidates.
	// A nil return means no proposal; proposals are validated like Incumbent.
	// It is always invoked from the merging goroutine, never concurrently.
	Heuristic func(relaxation []float64) []float64
	// LP tunes the relaxation solver.
	LP lp.Options
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// ErrModel reports a malformed model.
var ErrModel = errors.New("mip: invalid model")

// frontierWidth is how many open nodes each bulk-synchronous round expands.
// It is a constant — deliberately not tied to Options.Workers — so that the
// search trajectory is the same no matter how many workers expand it.
const frontierWidth = 8

type node struct {
	// fixes are (variable, lower, upper) bound overrides accumulated along
	// the branch.
	fixes []fix
	bound float64 // parent LP bound (optimistic for this node)
	depth int
	seq   int64     // creation order; deterministic tie-break
	warm  *lp.Basis // parent's final basis, warm-starts this node's LP
}

type fix struct {
	v      int
	lo, hi float64
}

// expansion is the outcome of solving one frontier node's relaxation on a
// worker. Merging back into the search state happens sequentially.
type expansion struct {
	err       error
	lp        *lp.Solution // nil when the node's fixes contradict each other
	status    lp.Status
	obj       float64
	x         []float64
	basis     *lp.Basis
	branchVar int // -1 when the relaxation point is integer feasible
}

// Solve runs branch & bound.
func (m *Model) Solve(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()
	nv := m.lpm.NumVars()
	if nv == 0 {
		return nil, fmt.Errorf("%w: no variables", ErrModel)
	}
	origLo := make([]float64, nv)
	origHi := make([]float64, nv)
	for v := 0; v < nv; v++ {
		lo, hi, err := m.lpm.Bounds(v)
		if err != nil {
			return nil, err
		}
		origLo[v], origHi[v] = lo, hi
	}

	res := &Result{Status: StatusUnknown}
	better := func(a, b float64) bool { // is a better than b in model sense
		if m.sense == lp.Maximize {
			return a > b
		}
		return a < b
	}
	var incumbent []float64
	incumbentObj := math.Inf(-1)
	if m.sense == lp.Minimize {
		incumbentObj = math.Inf(1)
	}
	accept := func(x []float64, obj float64) {
		if incumbent == nil || better(obj, incumbentObj) {
			incumbent = append([]float64(nil), x...)
			incumbentObj = obj
		}
	}

	if len(opts.Incumbent) == nv {
		if obj, ok := m.checkPoint(opts.Incumbent, origLo, origHi, opts.IntTol); ok {
			accept(opts.Incumbent, obj)
		}
	}

	// Worker-local model clones: bounds are per-clone, structure is shared.
	clones := make([]*lp.Model, opts.Workers)
	for w := range clones {
		clones[w] = m.lpm.Clone()
	}

	open := []*node{{bound: infFor(m.sense)}}
	// dropped holds nodes whose relaxation hit the LP iteration limit: they
	// are neither explored nor pruned, so the search cannot claim a proof
	// while one of them could still hold a better point.
	var dropped []*node
	var nextSeq int64 = 1
	var rootBound float64
	rootBoundSet := false
	incomplete := false

	for len(open) > 0 {
		if opts.TimeLimit > 0 && time.Since(start) > opts.TimeLimit {
			incomplete = true
			break
		}
		// Drop nodes the incumbent already dominates (not counted, same as a
		// pop-and-prune in a serial search).
		if incumbent != nil {
			kept := open[:0]
			for _, nd := range open {
				if better(nd.bound, incumbentObj) {
					kept = append(kept, nd)
				}
			}
			open = kept
			if len(open) == 0 {
				break
			}
		}
		width := frontierWidth
		if rem := opts.MaxNodes - res.Nodes; width > rem {
			width = rem
		}
		if width <= 0 {
			incomplete = true
			break
		}
		if width > len(open) {
			width = len(open)
		}
		// Best-first selection: strongest bound first, creation order on ties.
		sort.Slice(open, func(a, b int) bool {
			if open[a].bound != open[b].bound {
				return better(open[a].bound, open[b].bound)
			}
			return open[a].seq < open[b].seq
		})
		selected := open[:width]
		open = append([]*node(nil), open[width:]...)

		// Expand the selected nodes in parallel; results land in a slice
		// indexed by selection order, so scheduling cannot reorder them.
		results := make([]expansion, len(selected))
		par.For(len(selected), opts.Workers, func(w, i int) {
			results[i] = m.expandNode(clones[w], selected[i], origLo, origHi, opts)
		})

		// Merge sequentially in selection order: counting, incumbent updates,
		// heuristics, and child creation are all deterministic.
		for i, nd := range selected {
			ex := results[i]
			if ex.err != nil {
				return nil, fmt.Errorf("mip: node %d relaxation: %w", res.Nodes+1, ex.err)
			}
			if ex.lp != nil {
				res.LP.add(ex.lp)
			}
			// Re-check the bound: an earlier merge this round may have raised
			// the incumbent past this node.
			if incumbent != nil && !better(nd.bound, incumbentObj) {
				continue
			}
			res.Nodes++
			switch ex.status {
			case lp.StatusInfeasible:
				continue
			case lp.StatusUnbounded:
				if nd.depth == 0 {
					res.Status = StatusUnbounded
					res.Runtime = time.Since(start)
					return res, nil
				}
				continue
			case lp.StatusIterLimit:
				dropped = append(dropped, nd)
				continue
			}
			if !rootBoundSet {
				rootBound, rootBoundSet = ex.obj, true
			}
			if incumbent != nil && !better(ex.obj, incumbentObj) {
				continue
			}
			if ex.branchVar < 0 {
				// Integer feasible.
				accept(ex.x, ex.obj)
				continue
			}
			if nd.depth == 0 || res.Nodes%64 == 0 {
				// Rounding + caller-supplied repair heuristics: cheap incumbents
				// to enable pruning.
				if x, obj, ok := m.roundHeuristic(ex.x, origLo, origHi, opts.IntTol); ok {
					accept(x, obj)
				}
				if opts.Heuristic != nil {
					if cand := opts.Heuristic(ex.x); len(cand) == nv {
						if obj, ok := m.checkPoint(cand, origLo, origHi, opts.IntTol); ok {
							accept(cand, obj)
						}
					}
				}
			}

			bv := ex.branchVar
			floorV := math.Floor(ex.x[bv])
			down := &node{
				fixes: appendFix(nd.fixes, fix{bv, origLo[bv], floorV}),
				bound: ex.obj,
				depth: nd.depth + 1,
				warm:  ex.basis,
			}
			up := &node{
				fixes: appendFix(nd.fixes, fix{bv, floorV + 1, origHi[bv]}),
				bound: ex.obj,
				depth: nd.depth + 1,
				warm:  ex.basis,
			}
			// Sequence the nearer-integer child first so bound ties resolve
			// toward the dive the serial search would have taken.
			if ex.x[bv]-floorV < 0.5 {
				down.seq, up.seq = nextSeq, nextSeq+1
			} else {
				up.seq, down.seq = nextSeq, nextSeq+1
			}
			nextSeq += 2
			open = append(open, down, up)
		}
	}

	res.Runtime = time.Since(start)
	// Unexplored nodes: what a budget left open, and the dropped nodes the
	// incumbent does not dominate.
	for _, nd := range dropped {
		if incumbent == nil || better(nd.bound, incumbentObj) {
			open = append(open, nd)
			incomplete = true
		}
	}
	if incumbent != nil {
		res.Objective = incumbentObj
		res.X = incumbent
		if incomplete {
			res.Status = StatusFeasible
			// The open-node bound: the best bound among unexplored nodes and
			// the incumbent.
			res.Bound = bestOpenBound(open, incumbentObj, m.sense)
			if rootBoundSet && better(res.Bound, rootBound) {
				res.Bound = rootBound
			}
		} else {
			res.Status = StatusOptimal
			res.Bound = incumbentObj
		}
		if res.Objective != 0 {
			res.Gap = math.Abs(res.Objective-res.Bound) / math.Abs(res.Objective)
		}
		return res, nil
	}
	if incomplete {
		res.Status = StatusUnknown
	} else {
		res.Status = StatusInfeasible
	}
	if rootBoundSet {
		res.Bound = rootBound
	}
	return res, nil
}

// expandNode solves one node's relaxation on a worker-local clone: reset
// bounds, apply the node's fixes, warm-start from the parent basis, and
// locate the most fractional integer variable.
func (m *Model) expandNode(clone *lp.Model, nd *node, origLo, origHi []float64, opts Options) expansion {
	nv := len(origLo)
	for v := 0; v < nv; v++ {
		// Original bounds are valid by construction.
		_ = clone.SetBounds(v, origLo[v], origHi[v])
	}
	for _, f := range nd.fixes {
		if f.lo > f.hi || clone.SetBounds(f.v, f.lo, f.hi) != nil {
			return expansion{status: lp.StatusInfeasible}
		}
	}
	lpOpts := opts.LP
	lpOpts.Warm = nd.warm
	sol, err := clone.SolveWith(lpOpts)
	if err != nil {
		return expansion{err: err}
	}
	ex := expansion{lp: sol, status: sol.Status, branchVar: -1}
	if sol.Status != lp.StatusOptimal {
		return ex
	}
	ex.obj = sol.Objective
	ex.x = sol.X
	ex.basis = sol.Basis
	worst := opts.IntTol
	for v := 0; v < nv; v++ {
		if !m.integer[v] {
			continue
		}
		frac := math.Abs(sol.X[v] - math.Round(sol.X[v]))
		if frac > worst {
			worst = frac
			ex.branchVar = v
		}
	}
	return ex
}

func infFor(s lp.Sense) float64 {
	if s == lp.Maximize {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

func bestOpenBound(open []*node, incumbent float64, s lp.Sense) float64 {
	best := incumbent
	for _, nd := range open {
		if s == lp.Maximize && nd.bound > best {
			best = nd.bound
		}
		if s == lp.Minimize && nd.bound < best {
			best = nd.bound
		}
	}
	return best
}

func appendFix(fs []fix, f fix) []fix {
	out := make([]fix, len(fs), len(fs)+1)
	copy(out, fs)
	// Merge with an existing fix of the same variable (tighten).
	for i := range out {
		if out[i].v == f.v {
			out[i].lo = math.Max(out[i].lo, f.lo)
			out[i].hi = math.Min(out[i].hi, f.hi)
			return out
		}
	}
	return append(out, f)
}

// roundHeuristic rounds the relaxation point to the nearest integers,
// clamps to bounds, and accepts it if all rows hold. It returns the point
// and its objective value.
func (m *Model) roundHeuristic(x []float64, lo, hi []float64, tol float64) ([]float64, float64, bool) {
	nv := len(x)
	cand := make([]float64, nv)
	for v := 0; v < nv; v++ {
		cand[v] = x[v]
		if m.integer[v] {
			cand[v] = math.Round(x[v])
		}
		cand[v] = math.Max(lo[v], math.Min(hi[v], cand[v]))
	}
	obj, ok := m.checkPoint(cand, lo, hi, tol)
	if !ok {
		return nil, 0, false
	}
	return cand, obj, true
}

// checkPoint verifies a point against bounds, integrality, and all rows, and
// returns its objective value.
func (m *Model) checkPoint(x []float64, lo, hi []float64, tol float64) (float64, bool) {
	for v := range x {
		if x[v] < lo[v]-1e-7 || x[v] > hi[v]+1e-7 {
			return 0, false
		}
		if m.integer[v] && math.Abs(x[v]-math.Round(x[v])) > tol {
			return 0, false
		}
	}
	for _, r := range m.rows {
		val := 0.0
		for _, t := range r.terms {
			val += t.Coeff * x[t.Var]
		}
		switch r.op {
		case lp.LE:
			if val > r.rhs+1e-7 {
				return 0, false
			}
		case lp.GE:
			if val < r.rhs-1e-7 {
				return 0, false
			}
		case lp.EQ:
			if math.Abs(val-r.rhs) > 1e-7 {
				return 0, false
			}
		}
	}
	obj := 0.0
	for v := range x {
		obj += m.objs[v] * x[v]
	}
	return obj, true
}
