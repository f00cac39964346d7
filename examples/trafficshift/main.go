// Trafficshift: the paper's motivation made concrete. Traffic varies, a link
// runs hot, and the operator's only remedy is rerouting — which requires
// path programmability. The example measures how much of the hottest link's
// load is actually sheddable (a) in steady state, (b) after a double
// controller failure, and (c) after each algorithm's recovery, on the
// behavioural simulator.
package main

import (
	"flag"
	"fmt"
	"log"

	"pmedic"
	"pmedic/internal/flow"
	"pmedic/internal/traffic"
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
	// Gravity-model demands with a spike: the biggest flows cross the hubs.
	m, err := traffic.Gravity(dep.Graph, workload, 1.0)
	if err != nil {
		return err
	}
	lm, err := traffic.Loads(workload, m, 250)
	if err != nil {
		return err
	}
	if dryRun {
		fmt.Println("dry run: inputs built, exiting")
		return nil
	}
	a, b, util, _ := lm.Hottest()
	name := func(v pmedic.NodeID) string {
		n, _ := dep.Graph.Node(v)
		return n.Name
	}
	fmt.Printf("hottest link: %s — %s at %.0f%% utilization (load %.1f)\n",
		name(a), name(b), 100*util, lm.Load(a, b))

	net, err := pmedic.Simulate(dep, workload)
	if err != nil {
		return err
	}
	sheddable := func(label string) error {
		s, err := traffic.SheddableLoad(workload, m, a, b, func(id flow.ID) bool {
			return net.Programmable(id)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %6.1f of %.1f load sheddable (%.0f%%)\n",
			label, s, lm.Load(a, b), 100*s/lm.Load(a, b))
		return nil
	}

	if err := sheddable("steady state:"); err != nil {
		return err
	}

	// Double failure: the hub's domain and its backup controller.
	failed := []int{3, 4}
	if err := stop(net, failed); err != nil {
		return err
	}
	if err := sheddable("after failing C4+C5:"); err != nil {
		return err
	}

	sc, err := pmedic.NewScenario(dep, workload, failed)
	if err != nil {
		return err
	}
	for _, alg := range []struct {
		name string
		run  func(*pmedic.Scenario) (*pmedic.Result, error)
	}{
		{"RetroFlow", pmedic.RetroFlow},
		{"PM", pmedic.PM},
	} {
		// Fresh network per algorithm: same failure, different recovery.
		net, err = pmedic.Simulate(dep, workload)
		if err != nil {
			return err
		}
		if err := stop(net, failed); err != nil {
			return err
		}
		res, err := alg.run(sc)
		if err != nil {
			return err
		}
		if _, err := net.ApplyRecovery(sc, res.Solution); err != nil {
			return err
		}
		if err := sheddable("after " + alg.name + " recovery:"); err != nil {
			return err
		}
	}
	fmt.Println("\nMany flows stay shiftable even under failure — they cross online switches")
	fmt.Println("elsewhere on their paths — but only PM restores the full headroom; the")
	fmt.Println("residual pinned load under RetroFlow is exactly the flows whose only")
	fmt.Println("reroute points sit in the unrecoverable hub switch.")
	return nil
}

// stop kills the given controllers.
func stop(net *pmedic.Network, controllers []int) error {
	for _, j := range controllers {
		if err := net.StopController(j); err != nil {
			return err
		}
	}
	return nil
}
