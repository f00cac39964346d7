// Command pmsim regenerates the paper's evaluation: for a given failure
// scenario (1, 2, or 3 simultaneous controller failures) it runs PM,
// RetroFlow, PG, and Optimal over every failure combination and prints the
// series behind each panel of Figs. 4, 5, and 6, plus the Fig. 7 computation-
// time comparison. With -csv dir it also writes the printed tables, one CSV
// file per panel (fig<N><letter>_<stem>.csv, the runtime table
// fig<N>_runtime.csv), holding the same header and cells as printed.
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
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	csvDir := fs.String("csv", "", "also write each printed table as a CSV file into this directory")
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
	names := algNames(algs)
	for _, k := range cfg.scenarios {
		cases, err := eval.SweepOpts(dep, flows, k, algs, eval.Options{Context: sctx})
		if err != nil {
			return err
		}
		printScenario(out, k, cases, names)
		if cfg.csvDir != "" {
			if err := writeCSV(cfg.csvDir, k, cases, names); err != nil {
				return err
			}
		}
	}
	return nil
}

// panel is one table of a scenario's figure: the title it is printed under,
// the CSV file -csv writes it to, and the cell one algorithm gets in one case
// ("-" when the algorithm has no result there).
type panel struct {
	title, file string
	cell        func(c *eval.CaseResult, name string) string
}

// panels lists the tables of scenario k's figure (Fig. k+3) in print order:
// Fig. 4 has (a)–(d), Figs. 5 and 6 have (a)–(f), and the Fig. 7 runtime table
// comes last. A panel's file is fig<N><letter>_<stem>.csv, the runtime
// table's fig<N>_runtime.csv.
func panels(k int) []panel {
	list := []panel{
		{"Path programmability of recovered flows (min/q1/median/q3/max)", "programmability_box", func(c *eval.CaseResult, name string) string {
			box, ok := c.ProgBox(name)
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f/%.0f/%.1f/%.0f/%.0f", box.Min, box.Q1, box.Median, box.Q3, box.Max)
		}},
		{"Total path programmability, % of RetroFlow", "total_prog_pct_of_retroflow", func(c *eval.CaseResult, name string) string {
			pct, ok := c.TotalProgPctOf(name, "RetroFlow")
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", pct)
		}},
		{"Recovered programmable flows, % of offline flows", "recovered_flows_pct", func(c *eval.CaseResult, name string) string {
			pct, ok := c.RecoveredFlowPct(name)
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", pct)
		}},
	}
	if k >= 2 {
		list = append(list,
			panel{"Recovered offline switches", "recovered_switches", func(c *eval.CaseResult, name string) string {
				rep := c.Report(name)
				if rep == nil {
					return "-"
				}
				return fmt.Sprintf("%d/%d", rep.RecoveredSwitches, len(c.Instance.Switches))
			}},
			panel{"Control resource used on active controllers (Σ load / Σ residual)", "controller_load", func(c *eval.CaseResult, name string) string {
				rep := c.Report(name)
				if rep == nil {
					return "-"
				}
				used := 0
				for _, l := range rep.ControllerLoad {
					used += l
				}
				return fmt.Sprintf("%d/%d", used, c.Instance.Problem.TotalRest())
			}})
	}
	list = append(list, panel{"Per-flow communication overhead (ms)", "per_flow_overhead_ms", func(c *eval.CaseResult, name string) string {
		ms, ok := c.PerFlowOverheadMs(name)
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.3f", ms)
	}})
	fig := k + 3
	for i := range list {
		letter := 'a' + i
		list[i].title = fmt.Sprintf("Fig. %d(%c) %s", fig, letter, list[i].title)
		list[i].file = fmt.Sprintf("fig%d%c_%s.csv", fig, letter, list[i].file)
	}
	return append(list, panel{"Fig. 7 input: computation time", fmt.Sprintf("fig%d_runtime.csv", fig), func(c *eval.CaseResult, name string) string {
		rep := c.Report(name)
		if rep == nil {
			return "-"
		}
		return rep.Runtime.Round(10 * time.Microsecond).String()
	}})
}

// rows returns the panel's table: a header, then one row per case.
func (p panel) rows(cases []*eval.CaseResult, names []string) [][]string {
	rows := [][]string{append([]string{"CASE"}, names...)}
	for _, c := range cases {
		row := []string{c.Label}
		for _, name := range names {
			row = append(row, p.cell(c, name))
		}
		rows = append(rows, row)
	}
	return rows
}

// writeCSV writes each of the scenario's panels, as printed, to its own CSV
// file in dir.
func writeCSV(dir string, k int, cases []*eval.CaseResult, names []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range panels(k) {
		path := filepath.Join(dir, p.file)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := csv.NewWriter(f).WriteAll(p.rows(cases, names)); err != nil {
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
	fmt.Fprintf(out, "================ %d controller failure(s): Fig. %d (%d cases) ================\n\n",
		k, k+3, len(cases))
	for _, p := range panels(k) {
		fmt.Fprintln(out, p.title)
		fmt.Fprintln(out, strings.Repeat("-", len(p.title)))
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for _, row := range p.rows(cases, names) {
			fmt.Fprintln(w, strings.Join(row, "\t"))
		}
		_ = w.Flush()
		fmt.Fprintln(out)
	}
	if slices.Contains(names, "Optimal") {
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
