// Command pmsim regenerates the paper's evaluation: for a given failure
// scenario (1, 2, or 3 simultaneous controller failures) it runs PM,
// RetroFlow, PG, and Optimal over every failure combination and prints the
// series behind each panel of Figs. 4, 5, and 6, plus the Fig. 7 computation-
// time comparison.
//
// Usage:
//
//	pmsim [-scenario 1|2|3|all] [-skip-optimal] [-opt-time 60s] [-opt-workers n]
//	      [-lambda 0.001] [-workers n]
//	      [-regions k] [-improve-rounds n]
//	      [-cpuprofile f] [-memprofile f]
//
// With -scale n it instead runs a synthetic-deployment smoke at n switches:
// a depth-1 sweep with the fast heuristics over all-pairs traffic, printing
// per-case equivalence-class compression (the class-aggregated solver path is
// the one under test). CI runs `pmsim -scale 100` as a smoke check.
//
// -regions k switches the planner to the hierarchical region-sharded PM
// (internal/region): in figure mode PM-H joins the comparator table, in scale
// mode the deployment is built clustered and each case is solved with PM-H,
// planning every region against only its local controllers (see DESIGN.md
// §15). -improve-rounds bounds its anytime improver; -dry-run builds and
// partitions the deployment, prints the region layout, and exits without
// generating the workload (the CI smoke for the 1000-node path).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/prof"
	"pmedic/internal/region"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
}

type config struct {
	scenarios   []int
	skipOptimal bool
	optTime     time.Duration
	optWorkers  int
	lambda      float64
	slack       int
	csvDir      string
	workers     int
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("pmsim", flag.ContinueOnError)
	scenarioFlag := fs.String("scenario", "all", "failure scenario: 1, 2, 3, or all")
	skipOptimal := fs.Bool("skip-optimal", false, "skip the Optimal (branch & bound) comparator")
	optTime := fs.Duration("opt-time", 60*time.Second, "time budget per case for Optimal")
	optWorkers := fs.Int("opt-workers", 0, "branch & bound worker goroutines per Optimal solve (0 = 1)")
	lambda := fs.Float64("lambda", 0, "objective weight λ (0 = default)")
	slack := fs.Int("slack", 0, "path-count hop slack (0 = default)")
	csvDir := fs.String("csv", "", "also write each figure panel as CSV into this directory")
	workers := fs.Int("workers", 0, "concurrent failure cases per sweep (0 = one per CPU, 1 = sequential)")
	scale := fs.Int("scale", 0, "run a synthetic scale smoke at this many switches instead of the paper figures")
	regions := fs.Int("regions", 0, "shard the WAN into this many regions and solve hierarchically (0 = flat)")
	improveRounds := fs.Int("improve-rounds", 0, "anytime improver rounds after the hierarchical solve (0 = off)")
	dryRun := fs.Bool("dry-run", false, "with -scale: build and partition the deployment, then exit without solving")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
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
	cfg := config{
		skipOptimal: *skipOptimal,
		optTime:     *optTime,
		optWorkers:  *optWorkers,
		lambda:      *lambda,
		slack:       *slack,
		csvDir:      *csvDir,
		workers:     *workers,
	}
	if *scale > 0 {
		return runScale(out, *scale, *regions, *improveRounds, *dryRun)
	}
	if *dryRun {
		return errors.New("-dry-run needs -scale")
	}
	switch *scenarioFlag {
	case "all":
		cfg.scenarios = []int{1, 2, 3}
	case "1", "2", "3":
		k, _ := strconv.Atoi(*scenarioFlag)
		cfg.scenarios = []int{k}
	default:
		return fmt.Errorf("invalid -scenario %q", *scenarioFlag)
	}

	dep, err := topo.ATT()
	if err != nil {
		return err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{Slack: cfg.slack})
	if err != nil {
		return err
	}

	// One scenario context serves all sweeps: Figs. 4–6 differ only in which
	// controllers fail, never in the topology or workload.
	sctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return err
	}
	algs := eval.Comparators(cfg.lambda, cfg.optTime, cfg.optWorkers, cfg.skipOptimal)
	if *regions > 0 {
		part, err := region.New(dep, *regions, 1)
		if err != nil {
			return err
		}
		algs = append(algs, eval.HierPM(part, region.SolveOptions{ImproveRounds: *improveRounds}))
	}
	for _, k := range cfg.scenarios {
		cases, err := eval.SweepOpts(dep, flows, k, algs, eval.Options{Workers: cfg.workers, Context: sctx})
		if err != nil {
			return err
		}
		printScenario(out, k, cases, algNames(algs))
		if cfg.csvDir != "" {
			if err := exportCSV(cfg.csvDir, k, cases, algNames(algs)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runScale is the -scale smoke: a deterministic n-switch synthetic deployment
// with all-pairs traffic, swept at depth 1 with the fast heuristics. It prints
// the equivalence-class compression of every case — the CLASSES column is
// what PM plans over once a case is big and compressible enough (core's
// aggMinFlows and 2×), the path the scale-syn benchmark workload exercises;
// RetroFlow and PG plan flow by flow at every size — and fails loudly if any
// case cannot be solved or recovers nothing.
//
// With regions > 0 the deployment is built clustered, the controller count
// scales with n (one per ~20 switches), and every case is solved with the
// hierarchical PM-H instead of the flat trio — the regime where a flat solve
// cannot finish. dryRun stops after building and partitioning.
func runScale(out io.Writer, n, regions, improveRounds int, dryRun bool) error {
	m := 8
	if regions > 0 && n/20 > m {
		m = n / 20
	}
	const seed = 1
	build := func(capacity int) (*topo.Deployment, error) {
		if regions > 0 {
			return topo.SyntheticWithOpts(n, m, capacity, topo.SyntheticOpts{Seed: seed, Regions: regions})
		}
		return topo.Synthetic(n, m, capacity)
	}
	start := time.Now()
	// Synthetic needs the controller capacity up front, but the right value
	// depends on the workload. The graph is deterministic in n, so: build once
	// with a placeholder, generate the flows, size capacity off the largest
	// pre-failure domain load, and rebuild the deployment around it.
	dep, err := build(1)
	if err != nil {
		return err
	}
	if dryRun {
		return dryRunScale(out, dep, n, m, regions, seed, start)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return err
	}
	maxLoad := 0
	for _, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		if load > maxLoad {
			maxLoad = load
		}
	}
	capacity := maxLoad + maxLoad/2 + 1
	if dep, err = build(capacity); err != nil {
		return err
	}
	sctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scale smoke: %d switches, %d controllers (capacity %d), %d flows [setup %s]\n\n",
		n, m, capacity, flows.Len(), time.Since(start).Round(time.Millisecond))

	if regions > 0 {
		part, err := region.New(dep, regions, seed)
		if err != nil {
			return err
		}
		if err := runScaleHier(out, sctx, part, m, improveRounds); err != nil {
			return err
		}
	} else if err := runScaleFlat(out, sctx, m); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nscale smoke passed in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// dryRunScale prints the deployment and region layout without generating the
// workload: the cheap CI smoke for the 1000-node hierarchical path.
func dryRunScale(out io.Writer, dep *topo.Deployment, n, m, regions int, seed uint64, start time.Time) error {
	if err := dep.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(out, "dry run: %d switches, %d controllers, %d edges\n",
		n, m, dep.Graph.NumEdges())
	if regions > 0 {
		part, err := region.New(dep, regions, seed)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "REGION\tCONTROLLERS\tSWITCHES\tADJACENT\n")
		for r := 0; r < part.K; r++ {
			fmt.Fprintf(w, "%d\t%d\t%d\t%v\n",
				r, len(part.Controllers[r]), part.SwitchCount[r], part.Adjacent[r])
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "border switches: %d, cut edges: %d\n", len(part.Border), part.CutEdges())
	}
	fmt.Fprintf(out, "dry run passed in %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runScaleFlat sweeps all single failures with the flat heuristic trio.
func runScaleFlat(out io.Writer, sctx *scenario.Context, m int) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "CASE\tOFFLINE FLOWS\tCLASSES\tFLOWS/CLASS\tPM PROG\tRETROFLOW PROG\tPG PROG\tCOMPILE\tPM TIME\n")
	for j := 0; j < m; j++ {
		t0 := time.Now()
		inst, err := sctx.Build([]int{j})
		compile := time.Since(t0)
		if err != nil {
			return fmt.Errorf("case {%d}: %w", j, err)
		}
		classes := inst.Problem.ClassCount()
		if classes <= 0 {
			return fmt.Errorf("case {%d}: not class-aggregable (classes=%d)", j, classes)
		}
		prog := make(map[string]int, 3)
		var pmTime time.Duration
		for _, alg := range []struct {
			name string
			run  func(*core.Problem) (*core.Solution, error)
		}{{"PM", core.PM}, {"RetroFlow", core.RetroFlow}, {"PG", core.PG}} {
			sol, err := alg.run(inst.Problem)
			if err != nil {
				return fmt.Errorf("case {%d}: %s: %w", j, alg.name, err)
			}
			rep, err := inst.Evaluate(sol)
			if err != nil {
				return fmt.Errorf("case {%d}: %s: %w", j, alg.name, err)
			}
			if rep.RecoveredFlows == 0 {
				return fmt.Errorf("case {%d}: %s recovered no flows", j, alg.name)
			}
			prog[alg.name] = rep.TotalProg
			if alg.name == "PM" {
				pmTime = sol.Runtime
			}
		}
		fmt.Fprintf(w, "{%d}\t%d\t%d\t%.1f\t%d\t%d\t%d\t%s\t%s\n",
			j, inst.Problem.NumFlows, classes,
			float64(inst.Problem.NumFlows)/float64(classes),
			prog["PM"], prog["RetroFlow"], prog["PG"],
			compile.Round(10*time.Microsecond), pmTime.Round(10*time.Microsecond))
	}
	return w.Flush()
}

// runScaleHier sweeps all single failures with the hierarchical PM-H.
func runScaleHier(out io.Writer, sctx *scenario.Context, part *region.Partition, m, improveRounds int) error {
	sopts := region.SolveOptions{ImproveRounds: improveRounds}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "CASE\tREGION\tOFFLINE FLOWS\tPM-H PROG\tRECOVERED\tCOMPILE\tTIME\n")
	for j := 0; j < m; j++ {
		t0 := time.Now()
		inst, err := sctx.Build([]int{j})
		compile := time.Since(t0)
		if err != nil {
			return fmt.Errorf("case {%d}: %w", j, err)
		}
		sol, err := region.SolvePM(inst, part, sopts)
		if err != nil {
			return fmt.Errorf("case {%d}: PM-H: %w", j, err)
		}
		rep, err := inst.Evaluate(sol)
		if err != nil {
			return fmt.Errorf("case {%d}: PM-H: %w", j, err)
		}
		if rep.RecoveredFlows == 0 {
			return fmt.Errorf("case {%d}: PM-H recovered no flows", j)
		}
		fmt.Fprintf(w, "{%d}\t%d\t%d\t%d\t%d/%d\t%s\t%s\n",
			j, part.ControllerRegion[j], inst.Problem.NumFlows,
			rep.TotalProg, rep.RecoveredFlows, inst.OfflineFlowCount(),
			compile.Round(10*time.Microsecond), sol.Runtime.Round(10*time.Microsecond))
	}
	return w.Flush()
}

// exportCSV writes every panel of the scenario's figure as a CSV file.
func exportCSV(dir string, k int, cases []*eval.CaseResult, names []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fig := map[int]string{1: "fig4", 2: "fig5", 3: "fig6"}[k]
	panels := []struct {
		suffix string
		metric eval.Metric
	}{
		{"a_programmability_box", eval.MetricProgBox()},
		{"b_total_prog_pct_of_retroflow", eval.MetricTotalProgPct("RetroFlow")},
		{"c_recovered_flows_pct", eval.MetricRecoveredFlowPct()},
		{"d_recovered_switches_pct", eval.MetricRecoveredSwitchPct()},
		{"e_controller_load", eval.MetricControllerLoad()},
		{"f_per_flow_overhead_ms", eval.MetricPerFlowOverhead()},
		{"runtime_micros", eval.MetricRuntimeMicros()},
	}
	for _, p := range panels {
		path := filepath.Join(dir, fig+p.suffix+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := eval.WriteCSV(f, cases, names, p.metric); err != nil {
			_ = f.Close()
			return fmt.Errorf("export %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func algNames(algs []eval.Algorithm) []string {
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name
	}
	return names
}

func printScenario(out io.Writer, k int, cases []*eval.CaseResult, names []string) {
	figure := map[int]string{1: "Fig. 4", 2: "Fig. 5", 3: "Fig. 6"}[k]
	fmt.Fprintf(out, "================ %d controller failure(s): %s (%d cases) ================\n\n",
		k, figure, len(cases))

	section(out, figure+"(a) Path programmability of recovered flows (min/q1/median/q3/max)")
	table(out, cases, names, func(c *eval.CaseResult, name string) string {
		box, ok := c.ProgBox(name)
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.0f/%.0f/%.1f/%.0f/%.0f", box.Min, box.Q1, box.Median, box.Q3, box.Max)
	})

	section(out, figure+"(b) Total path programmability, % of RetroFlow")
	table(out, cases, names, func(c *eval.CaseResult, name string) string {
		pct, ok := c.TotalProgPctOf(name, "RetroFlow")
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", pct)
	})

	section(out, figure+"(c) Recovered programmable flows, % of offline flows")
	table(out, cases, names, func(c *eval.CaseResult, name string) string {
		pct, ok := c.RecoveredFlowPct(name)
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", pct)
	})

	if k >= 2 {
		section(out, figure+"(d) Recovered offline switches")
		table(out, cases, names, func(c *eval.CaseResult, name string) string {
			rep := c.Report(name)
			if rep == nil {
				return "-"
			}
			return fmt.Sprintf("%d/%d", rep.RecoveredSwitches, len(c.Instance.Switches))
		})

		section(out, figure+"(e) Control resource used on active controllers (Σ load / Σ residual)")
		table(out, cases, names, func(c *eval.CaseResult, name string) string {
			rep := c.Report(name)
			if rep == nil {
				return "-"
			}
			used := 0
			for _, l := range rep.ControllerLoad {
				used += l
			}
			return fmt.Sprintf("%d/%d", used, c.Instance.Problem.TotalRest())
		})
	}

	suffix := "(d)"
	if k >= 2 {
		suffix = "(f)"
	}
	section(out, figure+suffix+" Per-flow communication overhead (ms)")
	table(out, cases, names, func(c *eval.CaseResult, name string) string {
		ms, ok := c.PerFlowOverheadMs(name)
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.3f", ms)
	})

	section(out, "Fig. 7 input: computation time")
	table(out, cases, names, func(c *eval.CaseResult, name string) string {
		rep := c.Report(name)
		if rep == nil {
			return "-"
		}
		return rep.Runtime.Round(10 * time.Microsecond).String()
	})
	if hasAlg(names, "Optimal") {
		var sumPct float64
		n := 0
		for _, c := range cases {
			if pct, ok := c.RuntimePct("PM", "Optimal"); ok {
				sumPct += pct
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(out, "Fig. 7: PM computation time = %.2f%% of Optimal on average (%d cases with results)\n\n",
				sumPct/float64(n), n)
		}
	}
}

func hasAlg(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func section(out io.Writer, title string) {
	fmt.Fprintln(out, title)
	fmt.Fprintln(out, strings.Repeat("-", len(title)))
}

func table(out io.Writer, cases []*eval.CaseResult, names []string, cell func(*eval.CaseResult, string) string) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "CASE\t%s\n", strings.Join(names, "\t"))
	for _, c := range cases {
		row := make([]string, len(names))
		for i, name := range names {
			row[i] = cell(c, name)
		}
		fmt.Fprintf(w, "%s\t%s\n", c.Label, strings.Join(row, "\t"))
	}
	_ = w.Flush()
	fmt.Fprintln(out)
}
