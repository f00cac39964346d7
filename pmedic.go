package pmedic

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
	"pmedic/internal/traffic"
)

// Re-exported building blocks. The aliases keep one set of types across the
// façade and the internal packages, so values flow freely between the two.
type (
	// Deployment is a topology plus its controller domains.
	Deployment = topo.Deployment
	// Controller is one control-plane instance of a deployment.
	Controller = topo.Controller
	// NodeID identifies a switch site.
	NodeID = topo.NodeID
	// Workload is the generated flow set.
	Workload = flow.Set
	// WorkloadOptions tunes workload generation.
	WorkloadOptions = flow.Options
	// Scenario is a compiled failure case.
	Scenario = scenario.Instance
	// Problem is the FMSSM optimization instance of a scenario.
	Problem = core.Problem
	// Solution is a recovery decision: switch mappings plus per-pair modes.
	Solution = core.Solution
	// Report carries the paper's per-case metrics for one solution.
	Report = core.Report
	// Network is the behavioural SD-WAN simulator.
	Network = sdnsim.Network
	// CaseResult aggregates every algorithm's report for one failure case.
	CaseResult = eval.CaseResult
	// Algorithm is a named recovery algorithm for sweeps.
	Algorithm = eval.Algorithm
)

// ErrNoResult marks an algorithm run that produced no solution (the exact
// solver proving infeasibility or running out of budget). Sweeps tolerate
// it; direct calls surface it.
var ErrNoResult = eval.ErrNoResult

// ATT returns the embedded evaluation topology: 25 nodes, 112 directed
// links, six controllers of capacity 500 (the reproduction's equivalent of
// the paper's Topology Zoo ATT setup).
func ATT() (*Deployment, error) { return topo.ATT() }

// NewWorkload routes one flow per ordered node pair on shortest paths and
// computes the path-programmability coefficients. A zero Options value
// selects the paper-calibrated defaults.
func NewWorkload(dep *Deployment, opts WorkloadOptions) (*Workload, error) {
	return flow.Generate(dep.Graph, opts)
}

// NewScenario compiles the failure of the given controllers (indices into
// dep.Controllers) into an FMSSM instance with full index bookkeeping.
func NewScenario(dep *Deployment, w *Workload, failed []int) (*Scenario, error) {
	return scenario.Build(dep, w, failed)
}

// Result pairs a solution with its evaluated report.
type Result struct {
	Solution *Solution
	Report   *Report
}

func evaluate(sc *Scenario, sol *Solution, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	rep, err := sc.Evaluate(sol)
	if err != nil {
		return nil, err
	}
	return &Result{Solution: sol, Report: rep}, nil
}

// PM runs the paper's heuristic (Algorithm 1) on the scenario.
func PM(sc *Scenario) (*Result, error) {
	sol, err := core.PM(sc.Problem)
	return evaluate(sc, sol, err)
}

// RetroFlow runs the switch-level baseline (IWQoS'19).
func RetroFlow(sc *Scenario) (*Result, error) {
	sol, err := core.RetroFlow(sc.Problem)
	return evaluate(sc, sol, err)
}

// PG runs the flow-level middle-layer baseline ProgrammabilityGuardian
// (IWQoS'20); its communication overhead is accounted through the
// scenario's FlowVisor-style middle-layer delay model.
func PG(sc *Scenario) (*Result, error) {
	sol, err := core.PG(sc.Problem)
	return evaluate(sc, sol, err)
}

// OptimalOptions tunes the exact comparator.
type OptimalOptions struct {
	// TimeLimit bounds the branch & bound wall clock (default 60s).
	TimeLimit time.Duration
	// WarmStart seeds the search with PM's solution when it is feasible for
	// the exact model (default true).
	WarmStart *bool
}

// Optimal solves the scenario's FMSSM integer program with the pure-Go
// LP/branch-&-bound stack. It returns ErrNoResult (wrapped) when the model
// is infeasible — the paper's "Optimal cannot always have results" cases —
// or when no integer-feasible point was found within the budget.
func Optimal(sc *Scenario, opts OptimalOptions) (*Result, error) {
	o := opt.Options{TimeLimit: opts.TimeLimit}
	if opts.WarmStart == nil || *opts.WarmStart {
		if warm, err := core.PM(sc.Problem); err == nil {
			o.Warm = warm
		}
	}
	sol, err := opt.Solve(sc.Problem, o)
	if errors.Is(err, opt.ErrNoSolution) {
		return nil, fmt.Errorf("%w: %v", ErrNoResult, err)
	}
	return evaluate(sc, sol, err)
}

// Algorithms returns the paper's four comparators, ready for Sweep.
// optimalBudget bounds each exact solve; zero selects the default.
func Algorithms(optimalBudget time.Duration) []Algorithm {
	return eval.Comparators(0, optimalBudget, 0, false)
}

// Sweep runs the given algorithms over every failure combination of size k
// — the paper's 6 single-, 15 double-, and 20 triple-failure cases.
func Sweep(dep *Deployment, w *Workload, k int, algs []Algorithm) ([]*CaseResult, error) {
	return eval.SweepOpts(dep, w, k, algs, eval.Options{})
}

// Simulate builds the behavioural network: hybrid-pipeline switches with
// converged OSPF legacy tables and the steady-state OpenFlow entries of the
// workload. Fail controllers with Network.StopController and apply any
// switch-mapping Result with Network.ApplyRecovery.
func Simulate(dep *Deployment, w *Workload) (*Network, error) {
	return sdnsim.New(dep, w)
}

// Further re-exports: topology loading, successive/cascading failures, and
// the traffic-variation layer.
type (
	// Graph is a bare topology (no control plane).
	Graph = topo.Graph
	// GraphMLOptions tunes Topology Zoo GraphML loading.
	GraphMLOptions = topo.LoadGraphMLOptions
	// SuccessiveStep is one stage of a successive-failure episode.
	SuccessiveStep = scenario.Step
	// ChurnReport quantifies reconfiguration between consecutive recoveries.
	ChurnReport = eval.ChurnReport
	// CascadeResult is a cascading-failure episode.
	CascadeResult = eval.CascadeResult
	// TrafficMatrix assigns demand rates to flows.
	TrafficMatrix = traffic.Matrix
	// LinkLoads is per-link carried traffic for a routed workload.
	LinkLoads = traffic.LoadMap
)

// LoadGraphML parses a Topology-Zoo-style GraphML document, so the pipeline
// can run on real zoo files when they are available.
func LoadGraphML(r io.Reader, opts GraphMLOptions) (*Graph, error) {
	return topo.LoadGraphML(r, opts)
}

// AutoDeployment derives a controller deployment for an arbitrary topology:
// the m highest-degree nodes become sites; switches join their nearest site.
func AutoDeployment(g *Graph, m, capacity int) (*Deployment, error) {
	return topo.AutoDeployment(g, m, capacity)
}

// NewSuccessive compiles an episode in which the given controllers fail one
// after another; step t covers the first t+1 failures.
func NewSuccessive(dep *Deployment, w *Workload, order []int) ([]*SuccessiveStep, error) {
	return scenario.BuildSuccessive(dep, w, order)
}

// Churn compares two consecutive recoveries of a successive episode.
func Churn(prevSc *Scenario, prev *Result, nextSc *Scenario, next *Result) ChurnReport {
	return eval.Churn(prevSc, prev.Solution, nextSc, next.Solution)
}

// Cascade simulates cascading controller failures: after each recovery, any
// active controller loaded beyond trigger×capacity fails and the recovery is
// recomputed, until the system stabilizes or collapses.
func Cascade(dep *Deployment, w *Workload, initial []int, alg Algorithm, trigger float64) (*CascadeResult, error) {
	return eval.Cascade(dep, w, initial, alg, trigger)
}

// UniformTraffic gives every flow the same demand rate.
func UniformTraffic(w *Workload, rate float64) (*TrafficMatrix, error) {
	return traffic.Uniform(w, rate)
}

// GravityTraffic builds a gravity-model demand matrix with the given mean.
func GravityTraffic(dep *Deployment, w *Workload, meanRate float64) (*TrafficMatrix, error) {
	return traffic.Gravity(dep.Graph, w, meanRate)
}

// LinkLoadMap routes the demand matrix over the workload's paths.
func LinkLoadMap(w *Workload, m *TrafficMatrix, linkCapacity float64) (*LinkLoads, error) {
	return traffic.Loads(w, m, linkCapacity)
}
