// Package lp implements a linear-programming solver: a revised primal
// simplex with bounded variables, two phases (slack crash basis plus
// artificial variables for feasibility, then optimality), Dantzig pricing
// with a Bland anti-cycling fallback, and periodic basis refactorization.
// The constraint matrix is compiled once per model structure into
// compressed-sparse-column form, which the model's clones share; the basis
// inverse is a product-form eta file, rebuilt from the basis columns'
// non-zero patterns, for large models and a dense explicit inverse for tiny
// ones. Solves can be warm-started from the basis of a related solve
// (Solution.Basis → Options.Warm), which branch & bound uses to start child
// nodes from their parent's vertex: a basis the new bounds made infeasible
// is repaired by dual simplex, and a repair that dead-ends on a row proving
// infeasibility ends the solve there. Solution.Start, Iters and Refactors
// say which of these happened and what it cost.
//
// It is the bottom layer of the reproduction's GUROBI substitute; package
// mip adds branch & bound for integer models on top of it.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects the optimization direction of a model.
type Sense int

// Model senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Op is a linear constraint's comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // Σ aᵢxᵢ ≤ b
	GE               // Σ aᵢxᵢ ≥ b
	EQ               // Σ aᵢxᵢ = b
)

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// row is a stored constraint.
type row struct {
	terms []Term
	op    Op
	rhs   float64
}

// Model is a linear program under construction. Build it with AddVar and
// AddRow, then call Solve. A Model may be solved repeatedly and mutated
// between solves (branch & bound relies on SetBounds).
type Model struct {
	sense Sense
	obj   []float64
	lower []float64
	upper []float64
	names []string
	rows  []row
	form  *form // compiled on the first solve; AddVar and AddRow drop it
}

// NewModel returns an empty model with the given sense.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// Model construction errors.
var (
	ErrBadBounds = errors.New("lp: lower bound exceeds upper bound")
	ErrBadVar    = errors.New("lp: variable index out of range")
)

// AddVar appends a variable with bounds [lower, upper] (upper may be
// math.Inf(1)) and the given objective coefficient, returning its index.
func (m *Model) AddVar(lower, upper, objCoeff float64, name string) int {
	m.lower = append(m.lower, lower)
	m.upper = append(m.upper, upper)
	m.obj = append(m.obj, objCoeff)
	m.names = append(m.names, name)
	m.form = nil
	return len(m.obj) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// SetBounds replaces variable v's bounds; used by branch & bound to fix
// binaries.
func (m *Model) SetBounds(v int, lower, upper float64) error {
	if v < 0 || v >= len(m.obj) {
		return fmt.Errorf("%w: %d", ErrBadVar, v)
	}
	if lower > upper {
		return fmt.Errorf("%w: var %d: [%g, %g]", ErrBadBounds, v, lower, upper)
	}
	m.lower[v] = lower
	m.upper[v] = upper
	return nil
}

// Bounds returns variable v's current bounds.
func (m *Model) Bounds(v int) (lower, upper float64, err error) {
	if v < 0 || v >= len(m.obj) {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVar, v)
	}
	return m.lower[v], m.upper[v], nil
}

// AddRow appends the constraint Σ terms op rhs. Terms may repeat a variable;
// coefficients are summed.
func (m *Model) AddRow(op Op, rhs float64, terms ...Term) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: invalid op %d", op)
	}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.obj) {
			return fmt.Errorf("%w: %d", ErrBadVar, t.Var)
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	m.rows = append(m.rows, row{terms: cp, op: op, rhs: rhs})
	m.form = nil
	return nil
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal: an optimal solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible: the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded: the objective is unbounded in the optimization
	// direction.
	StatusUnbounded
	// StatusIterLimit: the iteration budget ran out before convergence.
	StatusIterLimit
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Solution is the result of a successful or partially successful solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Duals holds one dual value (shadow price) per constraint row at
	// optimality, in the model's sense: the objective's rate of change per
	// unit of slack in the row's right-hand side. Nil unless StatusOptimal.
	Duals []float64
	// Basis is the final simplex basis, suitable for warm-starting a solve
	// of the same model after bound changes (Options.Warm). Nil unless
	// StatusOptimal, or when the final basis is not exportable (a redundant
	// row kept an artificial variable basic).
	Basis *Basis
	// Start says how the solve got its first basis; Iters counts simplex
	// iterations (dual-repair pivots included) and Refactors basis
	// refactorizations, over the whole solve.
	Start     Start
	Iters     int
	Refactors int
}

// Start says where a solve's first feasible basis came from.
type Start int

// Solve starts.
const (
	// StartCold: the two-phase start from the slack/artificial crash basis —
	// no warm basis was given, or the one given could not be used.
	StartCold Start = iota
	// StartWarm: the warm basis was primal feasible as given.
	StartWarm
	// StartRepaired: dual-simplex pivots made the warm basis primal feasible.
	StartRepaired
	// StartCertified: dual simplex on the warm basis reached a row that
	// proves the bounds infeasible; the solve ended there (StatusInfeasible).
	StartCertified
)

// Basis is an opaque snapshot of a simplex basis over the model's expanded
// (structural + slack) variable space. It is only meaningful for a model
// with the same variables and rows it was exported from; bounds may differ.
type Basis struct {
	vars  []int32 // basic variable per position
	upper []int32 // nonbasic variables resting at their upper bound
}

// Factorization selects the basis-inverse representation.
type Factorization int

// Factorization choices.
const (
	// FactorSparse (the default) is the product-form eta file.
	FactorSparse Factorization = iota
	// FactorDense forces the dense explicit inverse.
	FactorDense
)

// feasTol is the simplex's feasibility and optimality tolerance.
const feasTol = 1e-7

// Options tunes the solver. The zero value selects defaults.
type Options struct {
	// MaxIters bounds simplex iterations per phase (default 50 000).
	MaxIters int
	// Factorization selects the basis-inverse representation (default
	// FactorSparse).
	Factorization Factorization
	// Warm, when non-nil, attempts to start from a basis exported by a
	// previous solve of the same model (Solution.Basis). A warm basis that
	// is singular, or primal-infeasible under the current bounds beyond what
	// dual simplex repairs or certifies, is silently discarded and the solve
	// falls back to the two-phase cold start (Solution.Start says which).
	Warm *Basis
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 50000
	}
	return o
}

// SolveWith optimizes the model. The returned error is non-nil only for
// malformed models or solver failures; infeasibility and unboundedness are
// reported through Solution.Status.
func (m *Model) SolveWith(opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	for v := range m.obj {
		if m.lower[v] > m.upper[v] {
			// Trivially infeasible by bounds (branch & bound produces these).
			return &Solution{Status: StatusInfeasible}, nil
		}
		if math.IsInf(m.lower[v], -1) {
			return nil, fmt.Errorf("lp: var %d (%s): free and lower-unbounded variables are not supported", v, m.names[v])
		}
	}
	s := newSimplex(m, opts)
	return s.solve(opts.Warm)
}

// Clone returns a model sharing this model's immutable structure (rows,
// objective, names) and its compiled form with independent bounds. Branch &
// bound tightens a clone's bounds node by node and leaves the model's own
// alone; neither model may gain variables or rows after cloning. The form is
// compiled here, so clones solved on different goroutines only read it.
func (m *Model) Clone() *Model {
	m.compiled()
	cp := *m
	cp.lower = append([]float64(nil), m.lower...)
	cp.upper = append([]float64(nil), m.upper...)
	return &cp
}
