// Chaospush: the resilient recovery driver under an adversarial control
// plane. One switch's agent is simply gone (its controller failure took the
// management network down with it) and every other control channel runs
// through the chaos transport, which injects dial failures, connection
// resets, and latency. The driver retries transient faults under capped
// backoff, demotes the unreachable switch to legacy mode, re-plans the
// residual through PM, and reports planned vs. achieved programmability.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

func main() {
	dryRun := flag.Bool("dry-run", false, "build the example's inputs and exit before running it")
	flag.Parse()
	if err := run(*dryRun); err != nil {
		log.Fatal(err)
	}
}

func run(dryRun bool) error {
	dep, err := topo.ATT()
	if err != nil {
		return err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return err
	}
	n, err := sdnsim.New(dep, flows)
	if err != nil {
		return err
	}
	failed := []int{3, 4}
	for _, j := range failed {
		if err := n.StopController(j); err != nil {
			return err
		}
	}
	inst, err := scenario.Build(dep, flows, failed)
	if err != nil {
		return err
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		return err
	}
	if dryRun {
		fmt.Println("dry run: inputs built, exiting")
		return nil
	}

	// One agent per offline switch — except the first mapped one, which is
	// unreachable for good.
	var dead topo.NodeID = -1
	for i := range inst.Switches {
		if sol.SwitchController[i] >= 0 {
			dead = inst.Switches[i]
			break
		}
	}
	agents := make(map[topo.NodeID]*sdnsim.Agent)
	for _, swID := range inst.Switches {
		if swID == dead {
			continue
		}
		a, err := sdnsim.ServeSwitch(n.Switches[swID], "127.0.0.1:0")
		if err != nil {
			return err
		}
		agents[swID] = a
		defer func() { _ = a.Close() }()
	}
	fmt.Printf("recovery case %v: %d offline switches, switch %d unreachable\n",
		failed, len(inst.Switches), dead)

	// Every remaining control channel goes through the chaos transport.
	dialer := chaos.NewDialer(chaos.Config{
		Seed:         42,
		Latency:      time.Millisecond,
		Jitter:       3 * time.Millisecond,
		ResetProb:    0.2,
		MaxResets:    8,
		DialFailProb: 0.2,
		MaxDialFails: 6,
	})
	dial := func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		tr, err := dialer.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		c := openflow.NewConn(tr)
		c.SetIOTimeout(timeout)
		if err := c.Handshake(); err != nil {
			_ = tr.Close()
			return nil, err
		}
		c.SetIOTimeout(0)
		return c, nil
	}

	rep, err := sdnsim.PushRecoveryResilient(sdnsim.AgentAddrs(agents), flows, inst, sol, sdnsim.PushOptions{
		Seed:        42,
		Dial:        dial,
		MaxAttempts: 10,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		return err
	}

	outcomes := append([]sdnsim.SwitchOutcome(nil), rep.Outcomes...)
	sort.Slice(outcomes, func(a, b int) bool { return outcomes[a].Switch < outcomes[b].Switch })
	fmt.Println("\nper-switch outcomes:")
	for _, out := range outcomes {
		if out.Status == sdnsim.PushLegacyPlanned {
			continue
		}
		line := fmt.Sprintf("  switch %2d: %-8s attempts=%d acked=%d",
			out.Switch, out.Status, out.Attempts, out.FlowModsAcked)
		if out.Err != nil {
			line += fmt.Sprintf("  (%v)", out.Err)
		}
		fmt.Println(line)
	}

	fmt.Printf("\nrounds=%d replanned=%v demoted=%v flow-mods acked=%d\n",
		rep.Rounds, rep.Replanned, rep.Demoted, rep.FlowModsAcked)
	fmt.Printf("planned:  r=%d total=%d\n", rep.Planned.MinProg, rep.Planned.TotalProg)
	fmt.Printf("achieved: r=%d total=%d\n", rep.Achieved.MinProg, rep.Achieved.TotalProg)

	// Cross-check the report against the agents' actual flow tables.
	for k, pr := range inst.Problem.Pairs {
		if rep.Final.SwitchController[pr.Switch] < 0 {
			continue
		}
		swID := inst.Switches[pr.Switch]
		lid := inst.FlowIDs[pr.Flow]
		_, has := agents[swID].Entry(lid)
		if has != rep.Final.Active[k] {
			return fmt.Errorf("switch %d flow %d: table=%v, report says %v", swID, lid, has, rep.Final.Active[k])
		}
	}
	fmt.Println("flow tables match the report")
	return nil
}
