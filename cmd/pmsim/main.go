// Command pmsim regenerates the paper's evaluation: for a given failure
// scenario (1, 2, or 3 simultaneous controller failures) it runs PM,
// RetroFlow, PG, and Optimal over every failure combination and prints the
// series behind each panel of Figs. 4, 5, and 6, plus the Fig. 7 computation-
// time comparison.
//
// Usage:
//
//	pmsim [-scenario 1|2|3|all] [-skip-optimal] [-opt-time 60s] [-csv dir]
//	      [-cpuprofile f] [-memprofile f]
//
// Each sweep evaluates one failure case per GOMAXPROCS at a time; the tables
// are the same at any setting (GOMAXPROCS=1 runs the cases in order).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/prof"
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
	csvDir      string
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("pmsim", flag.ContinueOnError)
	scenarioFlag := fs.String("scenario", "all", "failure scenario: 1, 2, 3, or all")
	skipOptimal := fs.Bool("skip-optimal", false, "skip the Optimal (branch & bound) comparator")
	optTime := fs.Duration("opt-time", 60*time.Second, "time budget per case for Optimal")
	csvDir := fs.String("csv", "", "also write each figure panel as CSV into this directory")
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
		csvDir:      *csvDir,
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
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return err
	}

	// One scenario context serves all sweeps: Figs. 4–6 differ only in which
	// controllers fail, never in the topology or workload.
	sctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		return err
	}
	algs := eval.Comparators(cfg.optTime, cfg.skipOptimal)
	for _, k := range cfg.scenarios {
		cases, err := eval.SweepOpts(dep, flows, k, algs, eval.Options{Context: sctx})
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
