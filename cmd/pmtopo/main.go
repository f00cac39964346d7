// Command pmtopo prints the embedded evaluation topology: its nodes, links,
// controller domains, and the per-switch flow counts — the reproduction's
// equivalent of the paper's Table III — plus the residual control capacity
// of every controller.
//
// Usage:
//
//	pmtopo [-slack n] [-limit n]
//
// The workload is one flow per ordered node pair (600 on ATT). -slack and
// -limit bound its path counting, which decides p̄ but no γ, so they leave
// the table as it is. The default output is pinned in testdata/att.txt.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"pmedic/internal/flow"
	"pmedic/internal/graphalg"
	"pmedic/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmtopo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmtopo", flag.ContinueOnError)
	slack := fs.Int("slack", 0, "path-count hop slack (0 = default)")
	limit := fs.Int("limit", 0, "path-count cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dep, err := topo.ATT()
	if err != nil {
		return err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{Slack: *slack, Limit: *limit})
	if err != nil {
		return err
	}

	g := dep.Graph
	fmt.Fprintf(out, "Topology: %d nodes, %d undirected links (%d directed)\n",
		g.NumNodes(), g.NumEdges(), g.NumDirectedLinks())
	fmt.Fprintf(out, "Workload: %d flows, total per-switch traversals %d\n\n",
		flows.Len(), flows.TotalTraversals())

	betweenness := graphalg.Betweenness(g)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NODE\tCITY\tDEGREE\tFLOWS (γ)\tBETWEENNESS")
	for _, n := range g.Nodes() {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.3f\n",
			n.ID, n.Name, g.Degree(n.ID), flows.SwitchFlowCount(n.ID), betweenness[n.ID])
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(out, "\nControllers (Table III equivalent):")
	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CTRL\tSITE\tDOMAIN\tDOMAIN LOAD\tCAPACITY\tRESIDUAL")
	for j, c := range dep.Controllers {
		load := 0
		for _, sw := range c.Domain {
			load += flows.SwitchFlowCount(sw)
		}
		fmt.Fprintf(w, "C%d\t%d\t%v\t%d\t%d\t%d\n", j+1, c.Site, c.Domain, load, c.Capacity, c.Capacity-load)
	}
	return w.Flush()
}
