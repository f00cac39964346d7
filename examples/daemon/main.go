// Daemon: the full online recovery loop, compressed into a few seconds. The
// stack is exactly what cmd/pmedicd runs — an openflow agent per switch, an
// echo liveness endpoint per controller, the heartbeat failure detector, and
// the event-driven medic — with a fast detector clock. The script kills two
// controllers at runtime, waits for the daemon to notice and converge on a
// pushed PM mapping, then revives them and waits for the fail-back to the
// ideal mapping, printing the daemon's structured event log at the end.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pmedic/internal/flow"
	"pmedic/internal/medic"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

func main() {
	dryRun := flag.Bool("dry-run", false, "build the stack, print the wiring, and exit without running the scenario")
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
	net, err := sdnsim.New(dep, flows)
	if err != nil {
		return err
	}

	agents := make(map[topo.NodeID]*sdnsim.Agent, len(net.Switches))
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	for _, sw := range net.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			return err
		}
		agents[sw.ID] = a
	}

	echos := make([]*openflow.EchoServer, len(net.Controllers))
	defer func() {
		for _, es := range echos {
			if es != nil {
				_ = es.Close()
			}
		}
	}()
	for j := range net.Controllers {
		if echos[j], err = openflow.ServeEcho("127.0.0.1:0"); err != nil {
			return err
		}
	}
	net.OnControllerChange = func(j int, alive bool) { echos[j].SetAlive(alive) }

	interval := 20 * time.Millisecond
	targets := make([]monitor.Target, len(net.Controllers))
	for j := range net.Controllers {
		targets[j] = monitor.Target{ID: j, Name: fmt.Sprintf("controller-%d", j), Addr: echos[j].Addr()}
	}
	mon := monitor.New(targets, monitor.Config{
		Interval:  interval,
		Threshold: 3,
		Debounce:  3 * interval,
		Seed:      1,
	})
	m, err := medic.New(medic.Config{
		Dep:   dep,
		Flows: flows,
		Addrs: sdnsim.AgentAddrs(agents),
		Net:   net,
		Push:  sdnsim.PushOptions{Seed: 1},
	})
	if err != nil {
		return err
	}

	fmt.Printf("daemon stack up: %d switch agents, %d controller echo endpoints, detector interval %v\n",
		len(agents), len(echos), interval)
	if dryRun {
		fmt.Println("dry run, exiting")
		return nil
	}

	mon.Start()
	m.Start(mon.Events())
	defer m.Stop()
	defer mon.Stop()

	wait := func(what string, cond func(medic.Status) bool) (medic.Status, error) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := m.Status()
			if cond(st) {
				return st, nil
			}
			if time.Now().After(deadline) {
				return st, fmt.Errorf("%s: not reached (last state: converged=%v ideal=%v failed=%v)",
					what, st.Converged, st.Ideal, st.Failed)
			}
			time.Sleep(interval)
		}
	}

	// A crash is noticed in round trips once the detector holds a session to
	// the controller, which it opens after the first probe that succeeds;
	// before that only the heartbeat would notice, Threshold ticks later.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(interval) {
		armed := 0
		for _, s := range mon.State() {
			if s.Watched {
				armed++
			}
		}
		if armed == len(targets) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("detector holds %d of %d sessions", armed, len(targets))
		}
	}
	fmt.Println("detector armed: one watched session per controller")

	// Act 1: the paper's headline-style case, injected at runtime — the hub
	// domain's controller dies together with its only capable backup.
	fmt.Println("\n--- killing controllers 3 and 4 ---")
	if err := net.StopController(3); err != nil {
		return err
	}
	if err := net.StopController(4); err != nil {
		return err
	}
	st, err := wait("recovery convergence", func(s medic.Status) bool {
		return s.Converged && !s.Ideal && len(s.Failed) == 2
	})
	if err != nil {
		return err
	}
	fmt.Printf("converged on %s: r=%d, total=%d, recovered %d/%d offline flows, %d flow-mods acked\n",
		st.Case, st.MinProg, st.TotalProg, st.RecoveredFlows, st.OfflineFlows, st.FlowModsAcked)
	remapped := 0
	for _, e := range st.Mapping {
		if e.Controller >= 0 {
			remapped++
		}
	}
	fmt.Printf("%d offline switches remapped to surviving controllers, %d left in legacy mode\n",
		remapped, len(st.Mapping)-remapped)

	// Act 2: both controllers return; the daemon fails back on its own.
	fmt.Println("\n--- reviving controllers 3 and 4 ---")
	if err := net.StartController(3); err != nil {
		return err
	}
	if err := net.StartController(4); err != nil {
		return err
	}
	st, err = wait("fail-back", func(s medic.Status) bool { return s.Ideal && s.Converged })
	if err != nil {
		return err
	}
	fmt.Printf("ideal mapping restored after %d domain restore(s)\n", st.Restores)

	fmt.Println("\nthe daemon's event log:")
	for _, e := range st.Events {
		fmt.Printf("  %-9s %s\n", e.Kind, e.Msg)
	}
	return nil
}
