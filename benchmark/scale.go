package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/region"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// scaleRunner is scale-syn: planning at carrier scale with nothing on the
// wire. The fixture is the BenchmarkHierarchical1000 one: a clustered
// 1000-node, 50-controller, 8-region synthetic WAN with all-pairs traffic
// (999 000 flows) and capacity 1.5× the heaviest domain load. One operation
// is one failure case solved twice, each from its own fresh Context.Build
// (the flow-class index is cached on the compiled problem, so sharing a
// build would hand the second solver a warm index): flat core.PM, then the
// hierarchical region.SolvePM with two improver rounds.
type scaleRunner struct {
	cfg config

	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	part  *region.Partition
	cases [][]int
	order []int
	id    int64

	generateS   float64
	newContextS float64
	partitionS  float64
}

// scaleShape is (nodes, controllers, regions); the self-test uses a small
// stand-in.
func (s *scaleRunner) shape() (n, m, k int) {
	if s.cfg.Quick {
		return 200, 10, 4
	}
	return 1000, 50, 8
}

func (s *scaleRunner) Setup() (err error) {
	n, m, k := s.shape()
	opts := topo.SyntheticOpts{Seed: 1, Regions: k}
	dep, err := topo.SyntheticWithOpts(n, m, 1, opts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if s.flows, err = flow.Generate(dep.Graph, flow.Options{}); err != nil {
		return err
	}
	s.generateS = time.Since(t0).Seconds()
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += s.flows.SwitchFlowCount(sw)
		}
		maxLoad = max(maxLoad, load)
	}
	if s.dep, err = topo.SyntheticWithOpts(n, m, maxLoad+maxLoad/2+1, opts); err != nil {
		return err
	}
	t0 = time.Now()
	if s.ctx, err = scenario.NewContext(s.dep, s.flows); err != nil {
		return err
	}
	s.newContextS = time.Since(t0).Seconds()
	t0 = time.Now()
	if s.part, err = region.New(s.dep, k, 1); err != nil {
		return err
	}
	s.partitionS = time.Since(t0).Seconds()

	s.cases = scaleCases
	if s.cfg.Quick {
		s.cases = [][]int{{1}, {1, 2}, {4}, {4, 5}}
	}
	s.order = rand.New(rand.NewSource(s.cfg.Seed)).Perm(len(s.cases))
	return nil
}

// scaleCases are the failure sets the workload rotates through: six depth-1
// sets and six adjacent depth-2 sets of the fixed-seed fixture, taken once
// from a pass over all 100 such sets as those nearest the middle of the cost
// range (57 000-140 000 offline flows, 55-130 ms per flat case). The full
// list spans 6 ms to 400 ms per case and would need 20 s per pass; a window
// that reached a seed-dependent third of it would report the mix it
// happened to draw, not the code it timed. The seed shuffles the order only.
var scaleCases = [][]int{
	{13}, {17}, {22}, {25}, {29}, {37},
	{13, 14}, {24, 25}, {25, 26}, {26, 27}, {29, 30}, {37, 38},
}

func (s *scaleRunner) Close() { *s = scaleRunner{cfg: s.cfg} }

// solveCase runs one case both ways and checks it: both solutions verify
// (Evaluate verifies), both recover flows, and PM-H reaches at least 90 % of
// flat PM's total programmability.
func (s *scaleRunner) solveCase(set []int, rec *recorder) (flat, hier *core.Report, err error) {
	s.id++
	tr := rec.tr
	root := tr.begin("case", -1, s.id)
	defer tr.end(root)

	// half compiles the case afresh, solves it and evaluates the solution,
	// one span per call, and records the total under key.
	half := func(key, spanName, solveSpan string, solve func(*scenario.Instance) (*core.Solution, error)) (*core.Report, error) {
		t0 := time.Now()
		parent := tr.begin(spanName, root, s.id)
		defer tr.end(parent)
		sp := tr.begin("scenario.build", parent, s.id)
		inst, err := s.ctx.Build(set)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(solveSpan, parent, s.id)
		sol, err := solve(inst)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.evaluate", parent, s.id)
		rep, err := inst.Evaluate(sol)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rec.observe(key, time.Since(t0))
		return rep, nil
	}
	flat, err = half("op", "case.flat", "core.pm", func(inst *scenario.Instance) (*core.Solution, error) {
		return core.PM(inst.Problem)
	})
	if err != nil {
		return nil, nil, err
	}
	hier, err = half("op2", "case.hier", "region.solvepm", func(inst *scenario.Instance) (*core.Solution, error) {
		return region.SolvePM(inst, s.part, region.SolveOptions{ImproveRounds: 2})
	})
	if err != nil {
		return nil, nil, err
	}

	if flat.RecoveredFlows == 0 || hier.RecoveredFlows == 0 {
		return nil, nil, fmt.Errorf("case %v: recovered flows flat=%d hier=%d", set, flat.RecoveredFlows, hier.RecoveredFlows)
	}
	if hier.TotalProg*10 < flat.TotalProg*9 {
		return nil, nil, fmt.Errorf("case %v: PM-H total programmability %d is below 90%% of flat PM's %d", set, hier.TotalProg, flat.TotalProg)
	}
	return flat, hier, nil
}

// Prepare solves one depth-1 and one depth-2 case; their reports are the
// digest.
func (s *scaleRunner) Prepare() (string, error) {
	h := sha256.New()
	scratch := newRecorder(nil)
	for _, set := range [][]int{s.cases[0], s.cases[len(s.cases)/2]} {
		flat, hier, err := s.solveCase(set, scratch)
		if err != nil {
			return "", err
		}
		for _, rep := range []*core.Report{flat, hier} {
			fmt.Fprintf(h, "%v %s %d %d %d %d\n", set, rep.Algorithm, rep.MinProg, rep.TotalProg, rep.RecoveredFlows, rep.RecoveredSwitches)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

func (s *scaleRunner) Cycle() int { return len(s.cases) }

func (s *scaleRunner) Op(rec *recorder, i int) error {
	set := s.cases[s.order[i%len(s.order)]]
	if _, _, err := s.solveCase(set, rec); err != nil {
		return err
	}
	rec.units++
	return nil
}

func (s *scaleRunner) Layers(rec *recorder, spans []span) error {
	L := rec.layers
	L["flow.generate_ms"] = s.generateS * 1e3
	L["scenario.newcontext_ms"] = s.newContextS * 1e3
	L["region.partition_ms"] = s.partitionS * 1e3
	L["scenario.build_us"] = median(durations(spans, "scenario.build")) * 1e6
	L["core.pm_us"] = median(durations(spans, "core.pm")) * 1e6
	L["core.evaluate_us"] = median(durations(spans, "core.evaluate")) * 1e6
	L["region.solvepm_ms"] = median(durations(spans, "region.solvepm")) * 1e3

	// Class index: the first PM on a fresh instance builds it, the second
	// finds it cached; the difference is the index.
	set := s.cases[0]
	var inst *scenario.Instance
	var err error
	L["scenario.build_allocs"] = allocsPer(1, func() { inst, err = s.ctx.Build(set) })
	if err != nil {
		return err
	}
	cold, err := timeCalls(1, func() error {
		_, err := core.PM(inst.Problem)
		return err
	})
	if err != nil {
		return err
	}
	warm, err := timeCalls(3, func() error {
		_, err := core.PM(inst.Problem)
		return err
	})
	if err != nil {
		return err
	}
	L["core.classindex_ms"] = (cold[0] - median(warm)) * 1e3
	L["core.pm_allocs"] = allocsPer(1, func() { _, _ = core.PM(inst.Problem) })
	if classes := inst.Problem.ClassCount(); classes > 0 {
		L["core.class_count"] = float64(classes)
		L["core.flows_per_class"] = float64(inst.Problem.NumFlows) / float64(classes)
	}
	return nil
}
