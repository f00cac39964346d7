package pmedic

import (
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// Re-exported building blocks. The aliases keep one set of types across the
// façade and the internal packages, so values flow freely between the two.
type (
	// Deployment is a topology plus its controller domains.
	Deployment = topo.Deployment
	// NodeID identifies a switch site.
	NodeID = topo.NodeID
	// Workload is the generated flow set.
	Workload = flow.Set
	// WorkloadOptions tunes workload generation.
	WorkloadOptions = flow.Options
	// Scenario is a compiled failure case.
	Scenario = scenario.Instance
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
