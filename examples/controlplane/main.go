// Controlplane: a live OpenFlow-style control channel over real TCP on
// localhost. A minimal controller takes mastership of a "switch" process,
// pushes the flow entries PM selected for one recovered switch, and verifies
// them with a barrier — the wire-level counterpart of what the simulator's
// ApplyRecovery models analytically.
package main

import (
	"flag"
	"fmt"
	"log"

	"pmedic"
	"pmedic/internal/openflow"
)

func main() {
	dryRun := flag.Bool("dry-run", false, "build the example's inputs and exit before running it")
	flag.Parse()
	if err := run(*dryRun); err != nil {
		log.Fatal(err)
	}
}

func run(dryRun bool) error {
	// Compute a recovery first: case (13, 16), hub switch 13.
	dep, err := pmedic.ATT()
	if err != nil {
		return err
	}
	workload, err := pmedic.NewWorkload(dep, pmedic.WorkloadOptions{})
	if err != nil {
		return err
	}
	sc, err := pmedic.NewScenario(dep, workload, []int{3, 4})
	if err != nil {
		return err
	}
	res, err := pmedic.PM(sc)
	if err != nil {
		return err
	}
	if dryRun {
		fmt.Println("dry run: inputs built, exiting")
		return nil
	}
	// Collect the flow-mods for the hub switch.
	var mods []openflow.FlowMod
	for i, sw := range sc.Switches {
		if sw != 13 {
			continue
		}
		for k, hi := sc.Problem.SwitchRun(i); k < hi; k++ {
			if !res.Solution.Active[k] {
				continue
			}
			f := &workload.Flows[sc.FlowIDs[sc.Problem.Pairs[k].Flow]]
			next := f.Path[1] // placeholder next hop; real path position found below
			for h := 0; h+1 < len(f.Path); h++ {
				if f.Path[h] == 13 {
					next = f.Path[h+1]
					break
				}
			}
			mods = append(mods, openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Priority: 100,
				Match:    openflow.Match{FlowID: uint32(f.ID), Src: uint32(f.Src), Dst: uint32(f.Dst)},
				NextHop:  uint32(next),
			})
		}
	}
	fmt.Printf("recovery for case %s selects %d SDN-mode flows at the hub switch\n", sc.Label(), len(mods))

	// The "switch": accepts a channel, answers features/role/barrier, and
	// installs whatever flow-mods arrive.
	l, err := openflow.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = l.Close() }()
	done := make(chan error, 1)
	go func() { done <- switchSide(l) }()

	// The "controller": dial, take mastership, push entries, barrier.
	conn, err := openflow.Dial(l.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()

	if _, err := conn.Send(openflow.FeaturesRequest{}); err != nil {
		return err
	}
	msg, _, err := conn.Recv()
	if err != nil {
		return err
	}
	feat, ok := msg.(openflow.FeaturesReply)
	if !ok {
		return fmt.Errorf("expected features reply, got %v", msg.MsgType())
	}
	fmt.Printf("switch datapath %#x: hybrid pipeline supported = %v\n", feat.DatapathID, feat.Hybrid)

	if _, err := conn.Send(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: 1}); err != nil {
		return err
	}
	if msg, _, err = conn.Recv(); err != nil {
		return err
	}
	if role, ok := msg.(openflow.RoleReply); ok {
		fmt.Printf("mastership acquired (role %d, generation %d)\n", role.Role, role.GenerationID)
	}

	for _, m := range mods {
		if _, err := conn.Send(m); err != nil {
			return err
		}
	}
	if _, err := conn.Send(openflow.BarrierRequest{}); err != nil {
		return err
	}
	if msg, _, err = conn.Recv(); err != nil {
		return err
	}
	if _, ok := msg.(openflow.BarrierReply); !ok {
		return fmt.Errorf("expected barrier reply, got %v", msg.MsgType())
	}
	fmt.Printf("pushed %d flow-mods and synchronized with a barrier\n", len(mods))
	_ = conn.Close()
	return <-done
}

// switchSide is the minimal datapath agent.
func switchSide(l *openflow.Listener) error {
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	installed := 0
	for {
		msg, h, err := conn.Recv()
		if err != nil {
			// Channel closed by the controller once done.
			fmt.Printf("switch: channel closed after installing %d entries\n", installed)
			return nil
		}
		switch m := msg.(type) {
		case openflow.FeaturesRequest:
			err = conn.SendXID(openflow.FeaturesReply{DatapathID: 13, NumTables: 2, Hybrid: true}, h.XID)
		case openflow.RoleRequest:
			err = conn.SendXID(openflow.RoleReply{Role: m.Role, GenerationID: m.GenerationID}, h.XID)
		case openflow.FlowMod:
			installed++
		case openflow.BarrierRequest:
			err = conn.SendXID(openflow.BarrierReply{}, h.XID)
		case openflow.Echo:
			if !m.Reply {
				err = conn.SendXID(openflow.Echo{Reply: true, Data: m.Data}, h.XID)
			}
		}
		if err != nil {
			return err
		}
	}
}
