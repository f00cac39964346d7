package lp

import (
	"errors"
	"math"
	"sort"
)

// varState tracks where a variable currently sits.
type varState int8

const (
	atLower varState = iota
	atUpper
	inBasis
)

// simplex is a bounded-variable revised primal simplex over the expanded
// (structural + slack + artificial) variable space. The constraint matrix is
// stored in compressed-sparse-column (CSC) form; the basis inverse lives
// behind the factorizer interface (dense explicit inverse for tiny models,
// product-form eta file with sparse refactorization otherwise).
type simplex struct {
	opts Options

	m int // rows
	n int // structural variables

	// CSC storage for all columns, structural then slack then artificial.
	// Column v occupies rowIdx/colVal[colPtr[v]:colPtr[v+1]].
	colPtr []int32
	rowIdx []int32
	colVal []float64

	lower  []float64 // bounds per expanded variable
	upper  []float64
	costP2 []float64 // phase-2 (true, minimization) costs
	costP1 []float64 // phase-1 costs (1 on artificials)
	b      []float64 // right-hand sides

	slackVar []int32 // per row: slack variable index, or -1 (EQ rows)

	nArt     int
	artStart int // first artificial variable index

	basis []int // variable in each basis position (position == constraint row)
	state []varState
	xB    []float64 // values of basic variables by basis position

	fact         factorizer
	refreshEvery int

	maximize  bool
	iters     int
	refactors int
}

func (s *simplex) numCols() int { return len(s.colPtr) - 1 }

// col returns column v's sparse entries.
func (s *simplex) col(v int) ([]int32, []float64) {
	a, b := s.colPtr[v], s.colPtr[v+1]
	return s.rowIdx[a:b], s.colVal[a:b]
}

// newSimplex expands the model into computational form.
func newSimplex(m *Model, opts Options) *simplex {
	s := &simplex{
		opts:     opts,
		m:        len(m.rows),
		n:        len(m.obj),
		maximize: m.sense == Maximize,
	}
	// Structural columns in CSC form: count, prefix-sum, fill, then merge
	// duplicate variable mentions within a row (AddRow permits them).
	counts := make([]int32, s.n+1)
	for _, r := range m.rows {
		for _, t := range r.terms {
			counts[t.Var+1]++
		}
	}
	s.colPtr = make([]int32, s.n+1)
	for v := 0; v < s.n; v++ {
		s.colPtr[v+1] = s.colPtr[v] + counts[v+1]
	}
	nnz := s.colPtr[s.n]
	s.rowIdx = make([]int32, nnz, nnz+int32(2*s.m))
	s.colVal = make([]float64, nnz, nnz+int32(2*s.m))
	next := make([]int32, s.n)
	copy(next, s.colPtr[:s.n])
	for i, r := range m.rows {
		for _, t := range r.terms {
			k := next[t.Var]
			s.rowIdx[k] = int32(i)
			s.colVal[k] = t.Coeff
			next[t.Var]++
		}
	}
	s.mergeDuplicates()

	s.lower = append(make([]float64, 0, s.n+2*s.m), m.lower...)
	s.upper = append(make([]float64, 0, s.n+2*s.m), m.upper...)
	s.costP2 = make([]float64, s.n, s.n+2*s.m)
	for v, c := range m.obj {
		if s.maximize {
			s.costP2[v] = -c
		} else {
			s.costP2[v] = c
		}
	}
	s.b = make([]float64, s.m)
	for i, r := range m.rows {
		s.b[i] = r.rhs
	}
	// Slack columns: LE -> +slack in [0, inf); GE -> -slack in [0, inf);
	// EQ -> none.
	s.slackVar = make([]int32, s.m)
	for i, r := range m.rows {
		switch r.op {
		case LE:
			s.slackVar[i] = int32(s.addCol(i, 1, 0, math.Inf(1), 0))
		case GE:
			s.slackVar[i] = int32(s.addCol(i, -1, 0, math.Inf(1), 0))
		case EQ:
			s.slackVar[i] = -1
		}
	}

	// Basis-inverse representation: the product-form eta file with sparse
	// refactorization, unless the dense explicit inverse is asked for.
	if opts.Factorization == FactorDense {
		s.fact = &denseFactor{}
		s.refreshEvery = 256
	} else {
		s.fact = &etaFactor{}
		s.refreshEvery = 96
	}
	return s
}

// mergeDuplicates sums repeated row entries inside each CSC column, keeping
// entries sorted by row.
func (s *simplex) mergeDuplicates() {
	write := int32(0)
	newPtr := make([]int32, len(s.colPtr))
	for v := 0; v < s.n; v++ {
		a, b := s.colPtr[v], s.colPtr[v+1]
		newPtr[v] = write
		if b > a+1 {
			seg := colSegment{rows: s.rowIdx[a:b], vals: s.colVal[a:b]}
			sort.Stable(seg)
		}
		for k := a; k < b; k++ {
			if write > newPtr[v] && s.rowIdx[write-1] == s.rowIdx[k] {
				s.colVal[write-1] += s.colVal[k]
				continue
			}
			s.rowIdx[write] = s.rowIdx[k]
			s.colVal[write] = s.colVal[k]
			write++
		}
	}
	newPtr[s.n] = write
	copy(s.colPtr, newPtr)
	s.rowIdx = s.rowIdx[:write]
	s.colVal = s.colVal[:write]
}

// colSegment sorts one CSC column's entries by row index.
type colSegment struct {
	rows []int32
	vals []float64
}

func (c colSegment) Len() int           { return len(c.rows) }
func (c colSegment) Less(i, j int) bool { return c.rows[i] < c.rows[j] }
func (c colSegment) Swap(i, j int) {
	c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
}

// addCol appends a single-entry column and returns its index.
func (s *simplex) addCol(row int, coeff, lo, hi, cost float64) int {
	s.rowIdx = append(s.rowIdx, int32(row))
	s.colVal = append(s.colVal, coeff)
	s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
	s.lower = append(s.lower, lo)
	s.upper = append(s.upper, hi)
	s.costP2 = append(s.costP2, cost)
	return s.numCols() - 1
}

// errNumerical reports unrecoverable numerical trouble.
var errNumerical = errors.New("lp: numerical failure")

func (s *simplex) solve(warm *Basis) (*Solution, error) {
	// Place nonbasic variables at their finite lower bound (validated by
	// SolveWith) and compute each row's residual.
	resid := make([]float64, s.m)
	s.residual(resid)

	start := StartCold
	if warm != nil {
		start = s.tryWarm(warm)
	}
	switch start {
	case StartCertified:
		return s.result(StatusInfeasible, start), nil
	case StartCold:
		s.crashBasis(resid)
		if err := s.refactorize(); err != nil {
			return nil, err
		}
		if s.nArt > 0 {
			// Phase 1.
			s.costP1 = make([]float64, s.numCols())
			for v := s.artStart; v < s.numCols(); v++ {
				s.costP1[v] = 1
			}
			status, err := s.iterate(s.costP1)
			if err != nil {
				return nil, err
			}
			if status == StatusIterLimit {
				return s.result(StatusIterLimit, start), nil
			}
			if s.phase1Objective() > s.opts.Tol*float64(1+s.m) {
				return s.result(StatusInfeasible, start), nil
			}
			s.lockArtificials()
		}
	}

	// Phase 2.
	status, err := s.iterate(s.costP2)
	if err != nil {
		return nil, err
	}
	sol := s.result(status, start)
	if status == StatusOptimal || status == StatusIterLimit {
		sol.X = s.extractX()
		var obj float64
		for v := 0; v < s.n; v++ {
			obj += s.costP2[v] * sol.X[v]
		}
		if s.maximize {
			obj = -obj
		}
		sol.Objective = obj
	}
	if status == StatusOptimal {
		sol.Duals = s.duals()
		sol.Basis = s.exportBasis()
	}
	return sol, nil
}

// result stamps a solution with the solve's counters.
func (s *simplex) result(status Status, start Start) *Solution {
	return &Solution{Status: status, Start: start, Iters: s.iters, Refactors: s.refactors}
}

// residual fills resid with b - N x_N for all nonbasic variables at their
// lower bound (the pre-crash state).
func (s *simplex) residual(resid []float64) {
	copy(resid, s.b)
	for v := 0; v < s.numCols(); v++ {
		x := s.lower[v]
		if x == 0 {
			continue
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			resid[r] -= vals[k] * x
		}
	}
}

// crashBasis builds the initial basis: each row's slack when the residual
// sign allows it to sit feasibly in the basis, an artificial otherwise. EQ
// rows (no slack) always get an artificial. Fewer artificials mean phase 1
// starts closer to feasibility — for all-LE models with nonnegative
// residuals it is skipped entirely.
func (s *simplex) crashBasis(resid []float64) {
	s.artStart = s.numCols()
	s.basis = make([]int, s.m)
	s.xB = make([]float64, s.m)
	s.state = make([]varState, s.artStart, s.artStart+s.m)
	s.nArt = 0
	for i := 0; i < s.m; i++ {
		if sv := s.slackVar[i]; sv >= 0 {
			// Slack value at this basis: +resid (LE) or -resid (GE); its
			// coefficient is ±1, so value = resid / coeff.
			_, vals := s.col(int(sv))
			val := resid[i] / vals[0]
			if val >= 0 {
				s.basis[i] = int(sv)
				s.state[sv] = inBasis
				s.xB[i] = val
				continue
			}
		}
		coeff := 1.0
		if resid[i] < 0 {
			coeff = -1.0
		}
		v := s.addCol(i, coeff, 0, math.Inf(1), 0)
		s.state = append(s.state, inBasis)
		s.basis[i] = v
		s.xB[i] = math.Abs(resid[i])
		s.nArt++
	}
}

// tryWarm attempts to start from a previously exported basis: it must have
// the right size, reference only structural/slack variables, and be
// nonsingular. It returns StartWarm when the basis is primal feasible as
// given, StartRepaired when dual simplex made it so, StartCertified when
// dual simplex proved the bounds infeasible, and StartCold — with the simplex
// left ready for the cold-start path — in every other case.
func (s *simplex) tryWarm(warm *Basis) Start {
	if len(warm.vars) != s.m {
		return StartCold
	}
	nCols := s.numCols()
	s.artStart = nCols
	s.nArt = 0
	s.state = make([]varState, nCols)
	seen := make([]bool, nCols)
	for _, v := range warm.vars {
		if v < 0 || int(v) >= nCols || seen[v] {
			return StartCold
		}
		seen[v] = true
		s.state[v] = inBasis
	}
	for _, v := range warm.upper {
		if v < 0 || int(v) >= nCols || s.state[v] == inBasis || math.IsInf(s.upper[v], 1) {
			return StartCold
		}
		s.state[v] = atUpper
	}
	s.basis = make([]int, s.m)
	for i, v := range warm.vars {
		s.basis[i] = int(v)
	}
	s.xB = make([]float64, s.m)
	if err := s.refactorize(); err != nil {
		// Singular warm basis: reset for the crash path.
		s.state = nil
		return StartCold
	}
	tol := s.opts.Tol * 10
	feasible := true
	for i, v := range s.basis {
		if s.xB[i] < s.lower[v]-tol || s.xB[i] > s.upper[v]+tol {
			feasible = false
			break
		}
	}
	if feasible {
		return StartWarm
	}
	// Bound changes since the basis was exported (branch & bound tightens
	// one variable per node) leave it dual-feasible but primal-infeasible:
	// exactly the case dual simplex repairs in a handful of pivots.
	start := s.dualRepair()
	if start == StartCold {
		s.state = nil
	}
	return start
}

// dualRepair restores primal feasibility of a structurally valid warm basis
// by bounded-variable dual simplex: pick the most-violated basic variable,
// drive it to its violated bound, and choose the entering column by the
// dual ratio test so reduced costs keep their signs. It returns
// StartRepaired when the basis is feasible again. With no entering column
// for the leaving row it returns StartCertified if that row alone proves the
// bounds infeasible (certifiesInfeasible). Otherwise — a dead end the row
// does not settle, the pivot budget, numerical trouble — it returns
// StartCold and the caller's two-phase start settles feasibility.
func (s *simplex) dualRepair() Start {
	const pivTol = 1e-9
	tol := s.opts.Tol
	cb := make([]float64, s.m)
	y := make([]float64, s.m)
	rho := make([]float64, s.m)
	unit := make([]float64, s.m)
	alpha := make([]float64, s.m)
	sinceRefresh := 0
	maxIter := 2*s.m + 100
	for iter := 0; iter < maxIter; iter++ {
		// Leaving row: the most violated basic bound.
		r := -1
		worst := tol * 10
		below := false
		for i, v := range s.basis {
			if d := s.lower[v] - s.xB[i]; d > worst {
				worst, r, below = d, i, true
			}
			if d := s.xB[i] - s.upper[v]; d > worst {
				worst, r, below = d, i, false
			}
		}
		if r < 0 {
			return StartRepaired
		}
		s.iters++
		// Duals and row r of B⁻¹.
		for i, v := range s.basis {
			cb[i] = s.costP2[v]
		}
		s.fact.btran(s, cb, y)
		for i := range unit {
			unit[i] = 0
		}
		unit[r] = 1
		s.fact.btran(s, unit, rho)
		// Dual ratio test: among nonbasic columns able to move x_B[r] toward
		// its bound, take the one whose reduced cost gives way first.
		entering := -1
		best := math.Inf(1)
		for v := 0; v < s.numCols(); v++ {
			if s.state[v] == inBasis || s.lower[v] == s.upper[v] {
				continue
			}
			rows, vals := s.col(v)
			var w float64
			for k, rr := range rows {
				w += rho[rr] * vals[k]
			}
			var ok bool
			if below { // x_B[r] must increase
				ok = (s.state[v] == atLower && w < -pivTol) || (s.state[v] == atUpper && w > pivTol)
			} else { // x_B[r] must decrease
				ok = (s.state[v] == atLower && w > pivTol) || (s.state[v] == atUpper && w < -pivTol)
			}
			if !ok {
				continue
			}
			d := s.costP2[v]
			for k, rr := range rows {
				d -= y[rr] * vals[k]
			}
			ratio := math.Abs(d) / math.Abs(w)
			if ratio < best-1e-12 || (ratio < best+1e-12 && (entering < 0 || v < entering)) {
				best, entering = ratio, v
			}
		}
		if entering < 0 {
			if s.certifiesInfeasible(rho, below, worst) {
				return StartCertified
			}
			return StartCold
		}
		leavingVar := s.basis[r]
		target := s.upper[leavingVar]
		if below {
			target = s.lower[leavingVar]
		}
		delta := s.xB[r] - target
		s.fact.ftran(s, entering, alpha)
		if math.Abs(alpha[r]) < pivTol {
			// rho-based row entry disagreed with the recomputed column:
			// refactorize and retry the iteration.
			if s.refactorize() != nil {
				return StartCold
			}
			continue
		}
		step := delta / alpha[r]
		rest := s.lower[entering]
		if s.state[entering] == atUpper {
			rest = s.upper[entering]
		}
		if err := s.fact.update(s, r, alpha); err != nil {
			if s.refactorize() != nil {
				return StartCold
			}
			continue
		}
		for i := 0; i < s.m; i++ {
			if i != r {
				s.xB[i] -= alpha[i] * step
			}
		}
		s.xB[r] = rest + step
		s.basis[r] = entering
		s.state[entering] = inBasis
		if below {
			s.state[leavingVar] = atLower
		} else {
			s.state[leavingVar] = atUpper
		}
		sinceRefresh++
		if sinceRefresh >= s.refreshEvery {
			if s.refactorize() != nil {
				return StartCold
			}
			sinceRefresh = 0
		}
	}
	return StartCold
}

// certifiesInfeasible decides a dual-simplex dead end on the leaving row
// alone. Row r of B⁻¹ (rho) applied to Ax = b reads
// x_B[r] = ρ·b − Σ_v (ρ·A_v)·x_v over the nonbasic columns, so the furthest
// x_B[r] can move toward the bound it violates is Σ max(gain_v, 0)·(u_v − l_v)
// with gain_v = ∓ρ·A_v by v's resting bound and the side violated — every
// nonbasic, non-fixed column counted, however small its coefficient. A reach
// short of the violation by more than Tol means no point within the bounds
// satisfies the row: the one-row form of phase 1's tolerance test. An
// infinite range behind any helpful coefficient makes the reach infinite and
// certifies nothing.
func (s *simplex) certifiesInfeasible(rho []float64, below bool, violation float64) bool {
	reach := 0.0
	for v := 0; v < s.numCols(); v++ {
		if s.state[v] == inBasis || s.lower[v] == s.upper[v] {
			continue
		}
		rows, vals := s.col(v)
		var gain float64
		for k, rr := range rows {
			gain += rho[rr] * vals[k]
		}
		// Leaving its lower bound, x_v lowers x_B[r] by ρ·A_v per unit;
		// leaving its upper bound it raises it by as much.
		if below == (s.state[v] == atLower) {
			gain = -gain
		}
		if gain > 0 {
			reach += gain * (s.upper[v] - s.lower[v])
		}
	}
	return reach < violation-s.opts.Tol
}

// exportBasis snapshots the final basis for warm-starting a related solve.
// Bases that still contain artificial variables are not exportable.
func (s *simplex) exportBasis() *Basis {
	bs := &Basis{vars: make([]int32, s.m)}
	for i, v := range s.basis {
		if v >= s.artStart {
			return nil
		}
		bs.vars[i] = int32(v)
	}
	for v := 0; v < s.artStart; v++ {
		if s.state[v] == atUpper {
			bs.upper = append(bs.upper, int32(v))
		}
	}
	return bs
}

// testHookRefactorize, when a test sets it, sees the simplex before each
// refactorization.
var testHookRefactorize func(s *simplex)

// refactorize rebuilds the basis-inverse representation from s.basis and
// recomputes the basic values.
func (s *simplex) refactorize() error {
	if testHookRefactorize != nil {
		testHookRefactorize(s)
	}
	s.refactors++
	if err := s.fact.refactorize(s); err != nil {
		return err
	}
	s.recomputeXB()
	return nil
}

// duals computes y = c_B B⁻¹ under the phase-2 costs, converted back to the
// model's sense.
func (s *simplex) duals() []float64 {
	cb := make([]float64, s.m)
	for i, v := range s.basis {
		cb[i] = s.costP2[v]
	}
	y := make([]float64, s.m)
	s.fact.btran(s, cb, y)
	if s.maximize {
		for j := range y {
			y[j] = -y[j]
		}
	}
	return y
}

func (s *simplex) phase1Objective() float64 {
	var sum float64
	for i, v := range s.basis {
		if v >= s.artStart {
			sum += s.xB[i]
		}
	}
	for v := s.artStart; v < s.numCols(); v++ {
		if s.state[v] == atUpper {
			// Artificials have infinite upper bound, so this cannot happen;
			// guarded for safety.
			sum += s.upper[v]
		}
	}
	return sum
}

// lockArtificials pins artificial variables to zero so phase 2 cannot use
// them. Artificials still basic (at value ~0) are pivoted out when possible;
// a row whose artificial cannot leave is linearly dependent and harmless.
func (s *simplex) lockArtificials() {
	for v := s.artStart; v < s.numCols(); v++ {
		s.upper[v] = 0
	}
	alpha := make([]float64, s.m)
	row := make([]float64, s.m)
	pivoted := false
	for i := 0; i < s.m; i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		// Row i of B⁻¹, computed once: candidate directions' i-th entries are
		// then sparse dot products.
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
		s.fact.btran(s, row, alpha)
		copy(row, alpha)
		art := s.basis[i]
		for v := 0; v < s.artStart; v++ {
			if s.state[v] == inBasis {
				continue
			}
			rows, vals := s.col(v)
			var entry float64
			for k, r := range rows {
				entry += row[r] * vals[k]
			}
			if math.Abs(entry) > 1e-7 {
				s.fact.ftran(s, v, alpha)
				if err := s.fact.update(s, i, alpha); err != nil {
					continue
				}
				s.basis[i] = v
				s.state[v] = inBasis
				s.state[art] = atLower
				pivoted = true
				break
			}
		}
	}
	if pivoted {
		s.recomputeXB()
	}
}

// iterate runs primal simplex on the given cost vector until optimal.
func (s *simplex) iterate(cost []float64) (Status, error) {
	cb := make([]float64, s.m)
	y := make([]float64, s.m)
	alpha := make([]float64, s.m)
	sinceRefresh := 0
	stall := 0
	prevObj := math.Inf(1)
	bland := false

	for iter := 0; iter < s.opts.MaxIters; iter++ {
		s.iters++
		// Duals: y = c_B B⁻¹.
		for i, v := range s.basis {
			cb[i] = cost[v]
		}
		s.fact.btran(s, cb, y)
		// Pricing: reduced costs touch only each column's nonzeros.
		entering := -1
		var bestScore float64
		enterDir := 1.0
		for v := 0; v < s.numCols(); v++ {
			if s.state[v] == inBasis || s.lower[v] == s.upper[v] {
				continue
			}
			d := cost[v]
			rows, vals := s.col(v)
			for k, r := range rows {
				d -= y[r] * vals[k]
			}
			var score float64
			var dir float64
			if s.state[v] == atLower && d < -s.opts.Tol {
				score, dir = -d, 1
			} else if s.state[v] == atUpper && d > s.opts.Tol {
				score, dir = d, -1
			} else {
				continue
			}
			if bland {
				entering, enterDir = v, dir
				break
			}
			if score > bestScore {
				bestScore, entering, enterDir = score, v, dir
			}
		}
		if entering < 0 {
			return StatusOptimal, nil
		}

		s.fact.ftran(s, entering, alpha)
		// Ratio test: the entering variable moves by enterDir * t, t >= 0;
		// basic variable i moves by -enterDir * alpha[i] * t.
		tMax := s.upper[entering] - s.lower[entering] // bound-flip distance
		leaving := -1
		leavingToUpper := false
		const pivTol = 1e-9
		for i := 0; i < s.m; i++ {
			rate := -enterDir * alpha[i]
			if rate < -pivTol { // basic decreases toward its lower bound
				lb := s.lower[s.basis[i]]
				t := (s.xB[i] - lb) / -rate
				if t < tMax-1e-12 || (leaving >= 0 && bland && t <= tMax+1e-12 && s.basis[i] < s.basis[leaving]) {
					tMax, leaving, leavingToUpper = t, i, false
				}
			} else if rate > pivTol { // basic increases toward its upper bound
				ub := s.upper[s.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				t := (ub - s.xB[i]) / rate
				if t < tMax-1e-12 || (leaving >= 0 && bland && t <= tMax+1e-12 && s.basis[i] < s.basis[leaving]) {
					tMax, leaving, leavingToUpper = t, i, true
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return StatusUnbounded, nil
		}
		if tMax < 0 {
			tMax = 0
		}

		// Apply the step to basic values.
		for i := 0; i < s.m; i++ {
			s.xB[i] -= enterDir * alpha[i] * tMax
		}
		if leaving < 0 {
			// Bound flip: entering jumps to its other bound.
			if s.state[entering] == atLower {
				s.state[entering] = atUpper
			} else {
				s.state[entering] = atLower
			}
		} else {
			if math.Abs(alpha[leaving]) < pivTol {
				if err := s.refactorize(); err != nil {
					return 0, err
				}
				continue
			}
			enterVal := s.lower[entering]
			if s.state[entering] == atUpper {
				enterVal = s.upper[entering]
			}
			enterVal += enterDir * tMax
			leavingVar := s.basis[leaving]
			if err := s.fact.update(s, leaving, alpha); err != nil {
				if err := s.refactorize(); err != nil {
					return 0, err
				}
				continue
			}
			s.basis[leaving] = entering
			s.state[entering] = inBasis
			if leavingToUpper {
				s.state[leavingVar] = atUpper
			} else {
				s.state[leavingVar] = atLower
			}
			s.xB[leaving] = enterVal
			sinceRefresh++
		}

		// Stall detection drives the Bland fallback.
		obj := 0.0
		for i, v := range s.basis {
			obj += cost[v] * s.xB[i]
		}
		if obj < prevObj-1e-10 {
			prevObj = obj
			stall = 0
			bland = false
		} else {
			stall++
			if stall > 2*s.m+50 {
				bland = true
			}
		}

		if sinceRefresh >= s.refreshEvery {
			if err := s.refactorize(); err != nil {
				return 0, err
			}
			sinceRefresh = 0
		}
	}
	return StatusIterLimit, nil
}

// recomputeXB recomputes basic values from nonbasic bounds: x_B = B⁻¹ (b − N x_N).
func (s *simplex) recomputeXB() {
	resid := make([]float64, s.m)
	copy(resid, s.b)
	for v := 0; v < s.numCols(); v++ {
		if s.state[v] == inBasis {
			continue
		}
		x := s.lower[v]
		if s.state[v] == atUpper {
			x = s.upper[v]
		}
		if x == 0 {
			continue
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			resid[r] -= vals[k] * x
		}
	}
	s.fact.applyInv(s, resid)
	copy(s.xB, resid)
}

// extractX returns structural variable values.
func (s *simplex) extractX() []float64 {
	x := make([]float64, s.n)
	for v := 0; v < s.n; v++ {
		switch s.state[v] {
		case atLower:
			x[v] = s.lower[v]
		case atUpper:
			x[v] = s.upper[v]
		}
	}
	for i, v := range s.basis {
		if v < s.n {
			x[v] = s.xB[i]
		}
	}
	return x
}
