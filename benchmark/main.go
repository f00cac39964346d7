// Command benchmark is the repository's ruler: six workloads that measure
// recovery time on the live monitor/medic/sdnsim stack and planning
// throughput offline, end to end (untraced) and one number per layer
// (traced), and check every output they time. BENCHMARK.json at the
// repository root describes it to the driver; README.md in this directory is
// the glossary.
//
//	go run ./benchmark                               # all six workloads
//	go run ./benchmark -workload live-att-react -seed 2 -seconds 10 -trace 1
//	go run ./benchmark -compare runsA/ runsB/        # medians, quartiles, verdicts
//
// It claims no gain. Everything is measured from outside the program under
// test: by timing calls into exported functions and by reading the daemon's
// own public outputs.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

//go:embed golden
var goldenFS embed.FS

// workload binds a name to its runner and to what the generic end-to-end
// metric names mean on it.
type workload struct {
	Name    string
	Why     string
	Meaning map[string]string
	New     func(cfg config) runner
}

// workloads is the fixed list; a budget cut shrinks windows, never this.
var workloads = []workload{
	{
		Name: "live-att-react",
		Why:  "CPU/syscall-bound react path (compile, plan, push, adopt, WAL fsync) with events injected; no detector, no wire delay",
		Meaning: map[string]string{
			"op_ms_q1": "recovery_ms", "op2_ms_q1": "failback_ms", "ops_per_s": "episodes_per_s",
		},
		New: func(cfg config) runner { return &liveRunner{cfg: cfg} },
	},
	{
		Name: "live-att-wan",
		Why:  "true detect-plan-push-adopt under per-message delay and retries; timer- and message-count-bound, so round trips show here and CPU does not",
		Meaning: map[string]string{
			"op_ms_q1": "recovery_ms", "op2_ms_q1": "failback_ms", "ops_per_s": "episodes_per_s",
		},
		New: func(cfg config) runner { return &liveRunner{cfg: cfg, wan: true} },
	},
	{
		Name: "sweep-att",
		Why:  "the paper's Fig. 4-6 loop: sweep engine, delta compile and flat solvers at 600 flows; planning changes must not slow it",
		Meaning: map[string]string{
			"op_ms_q1": "sweep_pass_ms", "op2_ms_q1": "sweep_k3_ms", "ops_per_s": "sweep_cases_per_s",
		},
		New: func(cfg config) runner { return &sweepRunner{cfg: cfg} },
	},
	{
		Name: "store-att",
		Why:  "plan-store writes beside reads: compile+fsync+rename, then hits vs superset fallbacks vs misses on one consult stream",
		Meaning: map[string]string{
			"op_ms_q1": "store_compile_ms", "op2_ms_q1": "store_consult_stream_ms", "ops_per_s": "store_consults_per_s",
		},
		New: func(cfg config) runner { return &storeRunner{cfg: cfg} },
	},
	{
		Name: "scale-syn",
		Why:  "1000 nodes, 999000 flows, nothing on the wire: class index, aggregated solvers, CSR compile and hierarchy dominate",
		Meaning: map[string]string{
			"op_ms_q1": "case_ms", "op2_ms_q1": "hier_case_ms", "ops_per_s": "cases_per_s",
		},
		New: func(cfg config) runner { return &scaleRunner{cfg: cfg} },
	},
	{
		Name: "optimal-att",
		Why:  "node-budgeted exact solves: lp/mip/opt do all the work, the only place the dense-vs-eta factor choice can show",
		Meaning: map[string]string{
			"op_ms_q1": "optimal_round_ms", "op2_ms_q1": "optimal_case_3_4_ms", "ops_per_s": "optimal_solves_per_s",
		},
		New: func(cfg config) runner { return &optimalRunner{cfg: cfg} },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, one after another)")
		seed    = flag.Int64("seed", 1, "seed of the failure schedule, consult stream, detector jitter, chaos and push retries")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		out     = flag.String("out", filepath.Join("benchmark", "out"), "directory for result files, traces and scratch state")
		golden  = flag.Bool("update-golden", false, "rewrite benchmark/golden/<workload>.digest from this run (seed 1 only)")
		compare = flag.Bool("compare", false, "compare two directories of result files: -compare A/ B/")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A/ B/")
			os.Exit(2)
		}
		worse, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	ok := true
	for _, w := range selected {
		cfg := config{
			Seed:         *seed,
			Seconds:      *seconds,
			Warmup:       1,
			Trace:        *trace != 0,
			OutDir:       *out,
			UpdateGolden: *golden,
			Log:          os.Stderr,
		}
		res, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		path, err := res.save(cfg.OutDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: result file:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "  result file:", path)
		line, err := json.Marshal(res.contract())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
