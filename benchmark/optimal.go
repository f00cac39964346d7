package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/lp"
	"pmedic/internal/opt"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// optimalCase is one exact solve of the round with its PM warm start and the
// outcome the first round produced (every later round must repeat it: the
// search is node-budgeted, so its tree is deterministic).
type optimalCase struct {
	set  []int
	inst *scenario.Instance
	warm *core.Solution
	// warmRep evaluates warm; the exact solve must not end below it when it
	// is feasible for the exact model.
	warmRep *core.Report
	// first is the first round's outcome: the objective, or "none" when the
	// budget ends without an incumbent (opt.ErrNoSolution, expected on
	// {2,3,4}).
	first string
}

// optimalRunner is optimal-att: a round of four node-budgeted opt.Solve
// calls on ATT cases {4}, {3,4}, {2,3,4}, {0,1}, each warm-started from PM.
// lp, mip and opt do all the work.
type optimalRunner struct {
	cfg   config
	dep   *topo.Deployment
	flows *flow.Set
	cases []*optimalCase
	round int64
}

func (o *optimalRunner) nodeBudget() int {
	if o.cfg.Quick {
		return 4
	}
	return 64
}

func (o *optimalRunner) Setup() (err error) {
	if o.dep, err = topo.ATT(); err != nil {
		return err
	}
	if o.flows, err = flow.Generate(o.dep.Graph, flow.Options{}); err != nil {
		return err
	}
	ctx, err := scenario.NewContext(o.dep, o.flows)
	if err != nil {
		return err
	}
	for _, set := range [][]int{{4}, {3, 4}, {2, 3, 4}, {0, 1}} {
		c := &optimalCase{set: set}
		if c.inst, err = ctx.Build(set); err != nil {
			return err
		}
		if c.warm, err = core.PM(c.inst.Problem); err != nil {
			return err
		}
		if c.warmRep, err = c.inst.Evaluate(c.warm); err != nil {
			return err
		}
		o.cases = append(o.cases, c)
	}
	return nil
}

func (o *optimalRunner) Close() { *o = optimalRunner{cfg: o.cfg} }

// solve runs one case and returns the solve's duration and its outcome
// rendered as text; the checks run outside the timed call.
func (o *optimalRunner) solve(c *optimalCase) (time.Duration, string, error) {
	t0 := time.Now()
	sol, err := opt.Solve(c.inst.Problem, opt.Options{
		TimeLimit: time.Hour, // the node budget is the binding limit
		MaxNodes:  o.nodeBudget(),
		Warm:      c.warm,
	})
	d := time.Since(t0)
	if errors.Is(err, opt.ErrNoSolution) {
		return d, "none", nil
	}
	if err != nil {
		return d, "", err
	}
	rep, err := c.inst.Evaluate(sol)
	if err != nil {
		return d, "", err
	}
	// The exact model makes the delay budget a hard constraint, so a PM
	// warm start outside it is not a feasible incumbent and need not be
	// beaten.
	warm := c.warmRep
	if warm.WithinBudget && warm.RecoveredFlows == c.inst.Problem.NumFlows && rep.Objective < warm.Objective-1e-9 {
		return d, "", fmt.Errorf("case %v: objective %.9g below its feasible PM warm start %.9g", c.set, rep.Objective, warm.Objective)
	}
	return d, fmt.Sprintf("%.9g/%d/%d", rep.Objective, rep.MinProg, rep.TotalProg), nil
}

func (o *optimalRunner) Prepare() (string, error) {
	h := sha256.New()
	for _, c := range o.cases {
		_, out, err := o.solve(c)
		if err != nil {
			return "", err
		}
		c.first = out
		fmt.Fprintf(h, "%v %s\n", c.set, out)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

func (o *optimalRunner) Cycle() int { return 1 }

func (o *optimalRunner) Op(rec *recorder, _ int) error {
	o.round++
	tr := rec.tr
	root := tr.begin("opt.round", -1, o.round)
	defer tr.end(root)
	var round time.Duration
	for _, c := range o.cases {
		sp := tr.begin("opt.solve", root, o.round)
		d, out, err := o.solve(c)
		tr.end(sp)
		if err != nil {
			return err
		}
		round += d
		if len(c.set) == 2 && c.set[0] == 3 {
			rec.observe("op2", d)
		}
		if out != c.first {
			return fmt.Errorf("round %d case %v: outcome %s, first round gave %s", o.round, c.set, out, c.first)
		}
		rec.units++
	}
	rec.observe("op", round)
	return nil
}

func (o *optimalRunner) Layers(rec *recorder, spans []span) error {
	L := rec.layers
	L["opt.solve_ms"] = median(durations(spans, "opt.solve")) * 1e3
	p := o.cases[1].inst.Problem
	reps := o.cfg.reps(3)
	for f, name := range map[lp.Factorization]string{
		lp.FactorSparse: "opt.relax_sparse_ms",
		lp.FactorDense:  "opt.relax_dense_ms",
	} {
		d, err := timeCalls(reps, func() error {
			_, err := opt.SensitivitiesWith(p, lp.Options{Factorization: f})
			return err
		})
		if err != nil {
			return err
		}
		L[name] = median(d) * 1e3
	}
	return nil
}
