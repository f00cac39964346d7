// Command pmstore compiles a plan store: it sweeps every controller-failure
// combination of the ATT deployment up to -depth with the parallel sweep
// engine, solves each case with the PM heuristic, delta-encodes the plans
// against the ideal mapping, and writes one mmap-ready binary the daemon
// serves failures from (pmedicd -plan-store).
//
// Usage:
//
//	pmstore -out att.pmps [-depth 2] [-sets 3,4;2,3,4] [-workers 0] [-info]
//
// -sets compiles exactly the named failure sets (semicolon-separated lists
// of comma-separated controller indices) instead of a full depth sweep —
// the sparse-store mode for deployments where only some combinations are
// credible. -info opens an existing store and prints its header instead of
// compiling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pmedic/internal/flow"
	"pmedic/internal/planstore"
	"pmedic/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmstore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmstore", flag.ContinueOnError)
	outPath := fs.String("out", "att.pmps", "plan-store file to write")
	depth := fs.Int("depth", 2, "sweep every failure combination of size 1..depth")
	sets := fs.String("sets", "", "compile exactly these failure sets instead (e.g. '3,4;2,3,4')")
	workers := fs.Int("workers", 0, "solver concurrency (0 = one per CPU)")
	info := fs.String("info", "", "print an existing store's header and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *info != "" {
		return printInfo(*info, out)
	}

	dep, err := topo.ATT()
	if err != nil {
		return err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return err
	}

	opts := planstore.CompileOptions{Depth: *depth, Workers: *workers}
	if *sets != "" {
		if opts.Sets, err = parseSets(*sets); err != nil {
			return err
		}
	}
	stats, err := planstore.Compile(dep, flows, *outPath, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pmstore: %s: %d plans up to depth %d, %d bytes (%d delta payload) in %v, topo %#x\n",
		*outPath, stats.Entries, stats.Depth, stats.Bytes, stats.PayloadBytes, stats.Elapsed.Round(stats.Elapsed/100+1), stats.TopoHash)
	return nil
}

// parseSets decodes '3,4;2,3,4' into [][]int{{3,4},{2,3,4}}.
func parseSets(s string) ([][]int, error) {
	var out [][]int
	for _, group := range strings.Split(s, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		var set []int
		for _, part := range strings.Split(group, ",") {
			j, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("-sets: %w", err)
			}
			set = append(set, j)
		}
		out = append(out, set)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sets: no failure sets in %q", s)
	}
	return out, nil
}

func printInfo(path string, out io.Writer) error {
	st, err := planstore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	h := st.Header()
	fmt.Fprintf(out, "pmstore: %s: v%d, %d plans up to depth %d, alg %s, M=%d, topo %#x\n",
		path, h.Version, st.Len(), h.Depth, h.Algorithm, h.NumControllers, h.TopoHash)
	return nil
}
