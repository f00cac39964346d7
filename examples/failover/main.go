// Failover: a live controller-failure drill on the behavioural simulator. It watches one transcontinental flow, kills the hub domain's
// controller mid-run, shows that the data plane keeps forwarding while
// reroutability is lost, applies PM's recovery, and then actually reroutes
// the flow at the recovered hub switch.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"

	"pmedic"
)

func main() {
	dryRun := flag.Bool("dry-run", false, "build the example's inputs and exit before running it")
	flag.Parse()
	if err := run(*dryRun); err != nil {
		log.Fatal(err)
	}
}

func run(dryRun bool) error {
	dep, err := pmedic.ATT()
	if err != nil {
		return err
	}
	workload, err := pmedic.NewWorkload(dep, pmedic.WorkloadOptions{})
	if err != nil {
		return err
	}
	net, err := pmedic.Simulate(dep, workload)
	if err != nil {
		return err
	}
	if dryRun {
		fmt.Println("dry run: inputs built, exiting")
		return nil
	}

	// Pick a flow crossing the Chicago hub as transit.
	watched := -1
	for l := range workload.Flows {
		f := &workload.Flows[l]
		if f.Src != 13 && f.Dst != 13 && slices.Contains(f.Path, 13) && len(f.Path) >= 4 {
			watched = l
			break
		}
	}
	if watched < 0 {
		return fmt.Errorf("no hub-transit flow found")
	}
	id := workload.Flows[watched].ID
	name := func(v pmedic.NodeID) string {
		n, _ := dep.Graph.Node(v)
		return n.Name
	}
	f := &workload.Flows[watched]
	fmt.Printf("watching flow %d: %s -> %s via %v\n", id, name(f.Src), name(f.Dst), f.Path)

	tr, err := net.Inject(id)
	if err != nil {
		return err
	}
	fmt.Printf("steady state: delivered over %v (%.2f ms one-way)\n", tr.Path, tr.LatencyMs)
	fmt.Printf("              programmable at hub 13? %v\n", net.ProgrammableAt(id, 13))

	// --- controller failure ---
	if err := net.StopController(3); err != nil {
		return err
	}
	fmt.Printf("\ncontroller C4 (site 13) FAILS: offline switches %v\n", net.OfflineSwitches())
	tr, err = net.Inject(id)
	if err != nil {
		return err
	}
	fmt.Printf("data plane survives: delivered over %v\n", tr.Path)
	fmt.Printf("              programmable at hub 13? %v  (control is gone)\n", net.ProgrammableAt(id, 13))

	// --- recovery ---
	sc, err := pmedic.NewScenario(dep, workload, []int{3})
	if err != nil {
		return err
	}
	res, err := pmedic.PM(sc)
	if err != nil {
		return err
	}
	msgs, err := net.ApplyRecovery(sc, res.Solution)
	if err != nil {
		return err
	}
	fmt.Printf("\nPM recovery applied: %d control messages, %d/%d offline flows programmable again\n",
		msgs, res.Report.RecoveredFlows, sc.Problem.NumFlows)
	fmt.Printf("              programmable at hub 13? %v\n", net.ProgrammableAt(id, 13))

	// --- prove it: reroute the watched flow at the hub ---
	entry := pmedic.NodeID(-1)
	for _, v := range dep.Graph.Neighbors(13) {
		if !slices.Contains(f.Path, v) {
			entry = v
			break
		}
	}
	if entry >= 0 && net.ProgrammableAt(id, 13) {
		if err := net.Reroute(id, 13, entry); err != nil {
			fmt.Printf("              reroute via %s refused: %v\n", name(entry), err)
		} else {
			tr, err = net.Inject(id)
			if err != nil {
				return err
			}
			fmt.Printf("rerouted at the hub toward %s: new path %v (delivered=%v)\n",
				name(entry), tr.Path, tr.Delivered)
		}
	}
	fmt.Printf("\nsimulator stats: %+v\n", net.Stats)
	return nil
}
