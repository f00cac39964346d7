package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// sweepRunner is sweep-att: the evaluation loop behind the paper's Fig. 4-6,
// eval.SweepOpts at k = 1, 2, 3 over ATT with PM, RetroFlow and PG on one
// shared scenario.Context in the default (delta) mode, repeated. One
// operation is one pass over all 41 cases.
type sweepRunner struct {
	cfg config

	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	algs  []eval.Algorithm

	generateS   float64
	newContextS float64
	pass        int64
	// want is the per-depth fingerprint of the sequential reference pass.
	want [3]string

	// tr and parent are read by the algorithm wrappers, which the sweep
	// engine calls from its workers.
	tr     *tracer
	parent int
}

func (s *sweepRunner) Setup() (err error) {
	if s.dep, err = topo.ATT(); err != nil {
		return err
	}
	t0 := time.Now()
	if s.flows, err = flow.Generate(s.dep.Graph, flow.Options{}); err != nil {
		return err
	}
	s.generateS = time.Since(t0).Seconds()
	t0 = time.Now()
	if s.ctx, err = scenario.NewContext(s.dep, s.flows); err != nil {
		return err
	}
	s.newContextS = time.Since(t0).Seconds()
	s.algs = []eval.Algorithm{
		s.traced("PM", "core.pm", core.PM),
		s.traced("RetroFlow", "core.retroflow", core.RetroFlow),
		s.traced("PG", "core.pg", core.PG),
	}
	return nil
}

// traced wraps a solver as a sweep algorithm with a span around each call.
func (s *sweepRunner) traced(name, spanName string, solve func(*core.Problem) (*core.Solution, error)) eval.Algorithm {
	return eval.Algorithm{Name: name, Run: func(inst *scenario.Instance) (*core.Solution, error) {
		sp := s.tr.begin(spanName, s.parent, s.pass)
		defer s.tr.end(sp)
		return solve(inst.Problem)
	}}
}

func (s *sweepRunner) Close() { *s = sweepRunner{cfg: s.cfg} }

// hashReport folds the fields of a report that define "the same result" into
// h. It runs inside timed loops, so it feeds raw integers rather than
// formatted text.
func hashReport(h hash.Hash, label, alg string, rep *core.Report) {
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		_, _ = h.Write(buf[:])
	}
	_, _ = io.WriteString(h, label)
	_, _ = io.WriteString(h, alg)
	put(rep.MinProg)
	put(rep.TotalProg)
	put(rep.RecoveredFlows)
	put(rep.RecoveredSwitches)
	put(int(math.Float64bits(rep.OverheadMs)))
	for _, v := range rep.FlowProg {
		put(v)
	}
	for _, v := range rep.ControllerLoad {
		put(v)
	}
}

func fingerprint(cases []*eval.CaseResult, algs []eval.Algorithm) string {
	h := fnv.New128a()
	for _, c := range cases {
		for _, a := range algs {
			if rep := c.Report(a.Name); rep != nil {
				hashReport(h, c.Label, a.Name, rep)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// Prepare computes the reference: a sequential pass that compiles every case
// with Context.Build, solves it with each algorithm, and verifies each
// solution. The sweep engine's delta-compiled, parallel results must hash to
// the same fingerprint in every pass.
func (s *sweepRunner) Prepare() (string, error) {
	all := sha256.New()
	for k := 1; k <= 3; k++ {
		var ref []*eval.CaseResult
		for _, set := range scenario.Combinations(len(s.dep.Controllers), k) {
			inst, err := s.ctx.Build(set)
			if err != nil {
				return "", err
			}
			cr := &eval.CaseResult{Label: inst.Label(), Reports: map[string]*core.Report{}}
			for _, a := range s.algs {
				sol, err := a.Run(inst)
				if err != nil {
					return "", fmt.Errorf("case %v: %s: %w", set, a.Name, err)
				}
				if err := sol.Verify(inst.Problem); err != nil {
					return "", fmt.Errorf("case %v: %s: %w", set, a.Name, err)
				}
				if cr.Reports[a.Name], err = inst.Evaluate(sol); err != nil {
					return "", err
				}
			}
			ref = append(ref, cr)
		}
		s.want[k-1] = fingerprint(ref, s.algs)
		fmt.Fprintln(all, s.want[k-1])
	}
	return fmt.Sprintf("%x", all.Sum(nil)[:12]), nil
}

func (s *sweepRunner) Cycle() int { return 1 }

func (s *sweepRunner) Op(rec *recorder, _ int) error {
	s.pass++
	s.tr = rec.tr
	s.parent = rec.tr.begin("eval.sweep_pass", -1, s.pass)
	defer rec.tr.end(s.parent)
	var pass time.Duration
	cases := 0
	for k := 1; k <= 3; k++ {
		t0 := time.Now()
		res, err := eval.SweepOpts(s.dep, s.flows, k, s.algs, eval.Options{Context: s.ctx})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		pass += d
		if k == 3 {
			rec.observe("op2", d)
		}
		if got := fingerprint(res, s.algs); got != s.want[k-1] {
			return fmt.Errorf("pass %d depth %d: sweep results %s differ from the sequential Context.Build pass %s", s.pass, k, got, s.want[k-1])
		}
		cases += len(res)
	}
	rec.observe("op", pass)
	rec.units += float64(cases)
	return nil
}

func (s *sweepRunner) Layers(rec *recorder, spans []span) error {
	L := rec.layers
	L["flow.generate_ms"] = s.generateS * 1e3
	L["scenario.newcontext_ms"] = s.newContextS * 1e3
	L["core.pm_us"] = median(durations(spans, "core.pm")) * 1e6
	L["core.retroflow_us"] = median(durations(spans, "core.retroflow")) * 1e6
	L["core.pg_us"] = median(durations(spans, "core.pg")) * 1e6

	reps := s.cfg.reps(5)
	set := []int{3, 4}
	var inst *scenario.Instance
	builds, err := timeCalls(40*reps, func() (err error) {
		inst, err = s.ctx.Build(set)
		return err
	})
	if err != nil {
		return err
	}
	L["scenario.build_us"] = median(builds) * 1e6
	L["scenario.build_allocs"] = allocsPer(20*reps, func() { _, _ = s.ctx.Build(set) })
	L["core.pm_allocs"] = allocsPer(20*reps, func() { _, _ = core.PM(inst.Problem) })
	sol, err := core.PM(inst.Problem)
	if err != nil {
		return err
	}
	evals, err := timeCalls(40*reps, func() error {
		_, err := inst.Evaluate(sol)
		return err
	})
	if err != nil {
		return err
	}
	L["core.evaluate_us"] = median(evals) * 1e6

	// Delta compile along the order the engine uses: each case patched out
	// of its revolving-door neighbour.
	gray := eval.GrayCombinations(len(s.dep.Controllers), 3)
	var deltas []float64
	for r := 0; r < 2*reps; r++ {
		st := new(scenario.DeltaState)
		for i, c := range gray {
			t0 := time.Now()
			if _, err := s.ctx.BuildDeltaCase(c, st); err != nil {
				return err
			}
			if i > 0 { // the first case of a chain is a full compile
				deltas = append(deltas, time.Since(t0).Seconds())
			}
		}
	}
	L["scenario.builddelta_us"] = median(deltas) * 1e6

	combos := scenario.CombinationsUpTo(len(s.dep.Controllers), 3)
	noop := func(int, *scenario.Instance) error { return nil }
	for mode, name := range map[eval.SweepMode]string{
		eval.SweepDelta:   "eval.engine_us_per_case",
		eval.SweepScratch: "eval.engine_scratch_us_per_case",
	} {
		passes, err := timeCalls(4*reps, func() error { return eval.ForEachCaseMode(s.ctx, combos, 0, mode, noop) })
		if err != nil {
			return err
		}
		L[name] = median(passes) * 1e6 / float64(len(combos))
	}
	return nil
}
