// Command pmsolve solves one failure case and emits the result as JSON:
// the switch→controller mapping, per-flow modes, and the paper's metrics.
// It is the scriptable entry point for driving the library from other
// tooling.
//
// Usage:
//
//	pmsolve -failed 13,16 [-algorithm pm|retroflow|pg|optimal]
//	        [-opt-time 60s] [-sensitivity]
//	        [-pretty] [-cpuprofile f] [-memprofile f]
//
// The -failed list names controllers by their site IDs as printed by pmtopo
// (e.g. "13,16" is the paper-style case (13, 16)). The workload is one flow
// per ordered node pair.
//
// -algorithm optimal adds an "exact" object: whether branch & bound proved
// its answer or a budget cut it short, nodes, bound and gap, and the simplex
// work underneath. A negative -opt-time is an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/mip"
	"pmedic/internal/opt"
	"pmedic/internal/prof"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsolve:", err)
		os.Exit(1)
	}
}

// output is the JSON document pmsolve emits.
type output struct {
	Case        string         `json:"case"`
	Algorithm   string         `json:"algorithm"`
	NoResult    bool           `json:"noResult,omitempty"`
	Reason      string         `json:"reason,omitempty"`
	Metrics     *metrics       `json:"metrics,omitempty"`
	Mapping     []mappingEntry `json:"mapping,omitempty"`
	SDNFlows    []sdnFlowEntry `json:"sdnFlows,omitempty"`
	Exact       *exact         `json:"exact,omitempty"`
	Sensitivity *sensitivity   `json:"sensitivity,omitempty"`
}

// exact says what -algorithm optimal's branch & bound can claim about its
// answer — proved (status optimal or infeasible) or cut short (feasible,
// unknown) — and what the search cost: nodes, and under lp the relaxations by
// how they started with their iterations and refactorizations. Objective and
// bound are in the exact model's terms (r + λ·Σ p̄·z); a bound that is not
// finite is left out.
type exact struct {
	Status    string     `json:"status"`
	Proved    bool       `json:"proved"`
	Nodes     int        `json:"nodes"`
	Objective *float64   `json:"objective,omitempty"`
	Bound     *float64   `json:"bound,omitempty"`
	Gap       *float64   `json:"gap,omitempty"`
	LP        mip.LPWork `json:"lp"`
}

func exactOf(res *opt.Result) *exact {
	finite := func(x float64) *float64 {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil
		}
		return &x
	}
	e := &exact{
		Status: res.Status.String(),
		Proved: res.Proved(),
		Nodes:  res.Nodes,
		Bound:  finite(res.Bound),
		LP:     res.LP,
	}
	if res.Solution != nil {
		e.Objective, e.Gap = finite(res.Objective), finite(res.Gap)
	}
	return e
}

// sensitivity carries the LP-relaxation shadow prices (-sensitivity flag):
// which surviving controller's capacity, or the delay budget, bottlenecks
// the recovery.
type sensitivity struct {
	// CapacityPrice maps controller site -> shadow price.
	CapacityPrice map[string]float64 `json:"capacityPrice"`
	BudgetPrice   float64            `json:"budgetPrice"`
	UpperBound    float64            `json:"relaxationObjective"`
}

type metrics struct {
	MinProgrammability   int     `json:"minProgrammability"`
	TotalProgrammability int     `json:"totalProgrammability"`
	RecoveredFlows       int     `json:"recoveredFlows"`
	OfflineFlows         int     `json:"offlineFlows"`
	UnrecoverableFlows   int     `json:"unrecoverableFlows"`
	RecoveredSwitches    int     `json:"recoveredSwitches"`
	OfflineSwitches      int     `json:"offlineSwitches"`
	OverheadMs           float64 `json:"overheadMs"`
	PerFlowOverheadMs    float64 `json:"perFlowOverheadMs"`
	BudgetMs             float64 `json:"budgetMs"`
	WithinBudget         bool    `json:"withinBudget"`
	RuntimeMicros        int64   `json:"runtimeMicros"`
}

type mappingEntry struct {
	Switch     int `json:"switch"`
	Controller int `json:"controller"` // controller site, -1 = legacy
}

type sdnFlowEntry struct {
	Switch int   `json:"switch"`
	Flows  []int `json:"flows"`
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("pmsolve", flag.ContinueOnError)
	failedFlag := fs.String("failed", "", "comma-separated failed controller site IDs, e.g. 13,16")
	algFlag := fs.String("algorithm", "pm", "pm, retroflow, pg, or optimal")
	optTime := fs.Duration("opt-time", 60*time.Second, "time budget for -algorithm optimal")
	pretty := fs.Bool("pretty", false, "indent the JSON output")
	withSensitivity := fs.Bool("sensitivity", false, "include LP-relaxation shadow prices")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failedFlag == "" {
		return errors.New("-failed is required (site IDs, e.g. -failed 13,16)")
	}
	stop, perr := prof.Start(*cpuProfile, *memProfile)
	if perr != nil {
		return perr
	}
	defer func() {
		if serr := stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	dep, err := topo.ATT()
	if err != nil {
		return err
	}
	failed, err := parseFailed(dep, *failedFlag)
	if err != nil {
		return err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return err
	}
	sctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return err
	}
	inst, err := sctx.Build(failed)
	if err != nil {
		return err
	}

	doc := output{Case: inst.Label(), Algorithm: strings.ToLower(*algFlag)}
	var sol *core.Solution
	switch doc.Algorithm {
	case "pm":
		sol, err = core.PM(inst.Problem)
	case "retroflow":
		sol, err = core.RetroFlow(inst.Problem)
	case "pg":
		sol, err = core.PG(inst.Problem)
	case "optimal":
		var warm *core.Solution
		if warm, err = core.PM(inst.Problem); err != nil {
			warm = nil
		}
		var res *opt.Result
		res, err = opt.Search(inst.Problem, opt.Options{TimeLimit: *optTime, Warm: warm})
		if res != nil {
			doc.Exact, sol = exactOf(res), res.Solution
		}
		if errors.Is(err, opt.ErrNoSolution) {
			doc.NoResult = true
			doc.Reason = err.Error()
			return emit(out, doc, *pretty)
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algFlag)
	}
	if err != nil {
		return err
	}
	rep, err := inst.Evaluate(sol)
	if err != nil {
		return err
	}
	fill(&doc, inst, sol, rep)
	if *withSensitivity {
		s, err := opt.Sensitivities(inst.Problem)
		if err == nil {
			doc.Sensitivity = &sensitivity{
				CapacityPrice: make(map[string]float64, len(s.CapacityPrice)),
				BudgetPrice:   s.BudgetPrice,
				UpperBound:    s.Objective,
			}
			for jj, price := range s.CapacityPrice {
				site := strconv.Itoa(int(dep.Controllers[inst.Active[jj]].Site))
				doc.Sensitivity.CapacityPrice[site] = price
			}
		}
	}
	return emit(out, doc, *pretty)
}

func parseFailed(dep *topo.Deployment, s string) ([]int, error) {
	var failed []int
	for _, part := range strings.Split(s, ",") {
		site, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad site id %q: %w", part, err)
		}
		idx := -1
		for j, c := range dep.Controllers {
			if int(c.Site) == site {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("no controller at site %d", site)
		}
		failed = append(failed, idx)
	}
	return failed, nil
}

func fill(doc *output, inst *scenario.Instance, sol *core.Solution, rep *core.Report) {
	p := inst.Problem
	doc.Metrics = &metrics{
		MinProgrammability:   rep.MinProg,
		TotalProgrammability: rep.TotalProg,
		RecoveredFlows:       rep.RecoveredFlows,
		OfflineFlows:         p.NumFlows,
		UnrecoverableFlows:   len(inst.Unrecoverable),
		RecoveredSwitches:    rep.RecoveredSwitches,
		OfflineSwitches:      len(inst.Switches),
		OverheadMs:           rep.OverheadMs,
		PerFlowOverheadMs:    rep.PerFlowOverheadMs,
		BudgetMs:             p.BudgetMs,
		WithinBudget:         rep.WithinBudget,
		RuntimeMicros:        rep.Runtime.Microseconds(),
	}
	for i, sw := range inst.Switches {
		site := -1
		if jj := sol.SwitchController[i]; jj >= 0 {
			site = int(inst.Dep.Controllers[inst.Active[jj]].Site)
		}
		doc.Mapping = append(doc.Mapping, mappingEntry{Switch: int(sw), Controller: site})
	}
	perSwitch := make(map[int][]int)
	for k, on := range sol.Active {
		if !on {
			continue
		}
		pr := p.Pairs[k]
		sw := int(inst.Switches[pr.Switch])
		perSwitch[sw] = append(perSwitch[sw], int(inst.FlowIDs[pr.Flow]))
	}
	for _, sw := range inst.Switches {
		if flows := perSwitch[int(sw)]; flows != nil {
			doc.SDNFlows = append(doc.SDNFlows, sdnFlowEntry{Switch: int(sw), Flows: flows})
		}
	}
}

func emit(w io.Writer, doc output, pretty bool) error {
	enc := json.NewEncoder(w)
	if pretty {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(doc)
}
