// Quickstart: load the evaluation topology, fail two controllers (the
// paper's headline-style case where the hub's only capable backup dies with
// it), run ProgrammabilityMedic, and print what was recovered.
package main

import (
	"flag"
	"fmt"
	"log"

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
	// The embedded ATT-like SD-WAN: 25 switches, 6 controller domains.
	dep, err := pmedic.ATT()
	if err != nil {
		return err
	}
	// One flow per ordered node pair, routed on shortest paths.
	workload, err := pmedic.NewWorkload(dep, pmedic.WorkloadOptions{})
	if err != nil {
		return err
	}
	// Fail controllers C4 (the Chicago hub domain) and C5 (the lightly
	// loaded Florida domain — the only controller that could have absorbed
	// the hub switch whole).
	sc, err := pmedic.NewScenario(dep, workload, []int{3, 4})
	if err != nil {
		return err
	}
	if dryRun {
		fmt.Println("dry run: inputs built, exiting")
		return nil
	}
	fmt.Printf("failure case %s: %d offline switches, %d offline flows (%d unrecoverable)\n",
		sc.Label(), len(sc.Switches), sc.Problem.NumFlows, len(sc.Unrecoverable))

	pm, err := pmedic.PM(sc)
	if err != nil {
		return err
	}
	rf, err := pmedic.RetroFlow(sc)
	if err != nil {
		return err
	}

	fmt.Printf("\n%-12s %10s %10s %10s %12s\n", "algorithm", "min prog", "total", "recovered", "overhead/flow")
	for _, r := range []*pmedic.Result{pm, rf} {
		fmt.Printf("%-12s %10d %10d %9d%% %10.2fms\n",
			r.Report.Algorithm,
			r.Report.MinProg,
			r.Report.TotalProg,
			100*r.Report.RecoveredFlows/sc.Problem.NumFlows,
			r.Report.PerFlowOverheadMs,
		)
	}
	fmt.Printf("\nPM recovers %.0f%% more total programmability than the switch-level baseline.\n",
		100*(float64(pm.Report.TotalProg)/float64(rf.Report.TotalProg)-1))

	// Where did the hub switch's flows go? Print its mapping.
	for i, sw := range sc.Switches {
		if sw != 13 {
			continue
		}
		jj := pm.Solution.SwitchController[i]
		if jj < 0 {
			fmt.Println("hub switch 13: left in legacy mode")
			break
		}
		site := dep.Controllers[sc.Active[jj]].Site
		sdn := 0
		for k, hi := sc.Problem.SwitchRun(i); k < hi; k++ {
			if pm.Solution.Active[k] {
				sdn++
			}
		}
		fmt.Printf("hub switch 13 (γ=%d flows): remapped to the controller at site %d "+
			"with %d flows in SDN mode, the rest on the legacy table.\n",
			sc.Problem.Gamma[i], site, sdn)
	}
	return nil
}
