package sdnsim

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func lifecycleFixture(t *testing.T) (*topo.Deployment, *flow.Set, *Network) {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	return dep, flows, n
}

func TestStopStartControllerRoundTrip(t *testing.T) {
	dep, _, n := lifecycleFixture(t)
	var events []int
	n.OnControllerChange = func(j int, alive bool) {
		if alive {
			events = append(events, j)
		} else {
			events = append(events, -j-1)
		}
	}

	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	if n.Controllers[3].Alive {
		t.Fatal("controller 3 alive after StopController")
	}
	for _, sw := range dep.Controllers[3].Domain {
		if n.Switches[sw].Managed() {
			t.Fatalf("switch %d still managed after its controller stopped", sw)
		}
	}
	// Idempotent: a second stop is a no-op and fires no hook.
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}

	if err := n.StartController(3); err != nil {
		t.Fatal(err)
	}
	if !n.Controllers[3].Alive {
		t.Fatal("controller 3 dead after StartController")
	}
	for _, sw := range dep.Controllers[3].Domain {
		if n.Switches[sw].Controller != 3 {
			t.Fatalf("switch %d not re-homed to controller 3", sw)
		}
	}
	// Starting an alive controller is an error.
	if err := n.StartController(3); err == nil {
		t.Fatal("StartController on an alive controller succeeded")
	}

	want := []int{-4, 3}
	if len(events) != len(want) {
		t.Fatalf("hook fired %d times, want %d (%v)", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("hook events = %v, want %v", events, want)
		}
	}
}

func TestStopControllerUnmanagesRemappedSwitches(t *testing.T) {
	dep, flows, n := lifecycleFixture(t)
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AdoptMapping(inst, sol); err != nil {
		t.Fatal(err)
	}
	// Find a backup controller that adopted some of controller 3's switches,
	// stop it, and check those switches become unmanaged again.
	backup := -1
	for i, jj := range sol.SwitchController {
		if jj >= 0 {
			backup = inst.Active[jj]
			if n.Switches[inst.Switches[i]].Controller != backup {
				t.Fatalf("switch %d not adopted by controller %d", inst.Switches[i], backup)
			}
			break
		}
	}
	if backup < 0 {
		t.Fatal("PM mapped no switches")
	}
	if err := n.StopController(backup); err != nil {
		t.Fatal(err)
	}
	for i, jj := range sol.SwitchController {
		if jj >= 0 && inst.Active[jj] == backup {
			if n.Switches[inst.Switches[i]].Managed() {
				t.Fatalf("remapped switch %d still managed after backup %d died", inst.Switches[i], backup)
			}
		}
	}
}

func TestAdoptMappingRejectsDeadController(t *testing.T) {
	dep, flows, n := lifecycleFixture(t)
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	// Kill an active controller the solution relies on.
	victim := -1
	for _, jj := range sol.SwitchController {
		if jj >= 0 {
			victim = inst.Active[jj]
			break
		}
	}
	if err := n.StopController(victim); err != nil {
		t.Fatal(err)
	}
	if err := n.AdoptMapping(inst, sol); err == nil {
		t.Fatal("AdoptMapping accepted a mapping onto a dead controller")
	}
}

// TestRefusedAdoptChangesNothing kills the controller of the last switch the
// plan maps, so every earlier switch has passed its check by the time the
// refusal comes: the mapping and the remap count must be as they were.
func TestRefusedAdoptChangesNothing(t *testing.T) {
	dep, flows, n := lifecycleFixture(t)
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for _, jj := range sol.SwitchController {
		if jj >= 0 {
			victim = inst.Active[jj]
		}
	}
	if err := n.StopController(victim); err != nil {
		t.Fatal(err)
	}
	before, remaps := n.MappingSnapshot(), n.Stats.Remappings
	if err := n.AdoptMapping(inst, sol); !errors.Is(err, ErrControllerDown) {
		t.Fatalf("AdoptMapping onto dead controller %d = %v, want ErrControllerDown", victim, err)
	}
	if after := n.MappingSnapshot(); !slices.Equal(after, before) || n.Stats.Remappings != remaps {
		t.Fatalf("refused adopt moved switches: mapping %v -> %v, remappings %d -> %d",
			before, after, remaps, n.Stats.Remappings)
	}
}

func TestLifecycleSurfaceIsRaceFree(t *testing.T) {
	dep, flows, n := lifecycleFixture(t)
	inst, err := scenario.Build(dep, flows, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = n.StopController(3)
			_ = n.StartController(3)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = n.AdoptMapping(inst, sol) // may fail while 3 flaps; must not race
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = n.MappingSnapshot()
		}
	}()
	wg.Wait()
	// Settle deterministically: an AdoptMapping may have landed after the
	// last revival and remapped domain switches to backups, so flap the
	// controller once more — StartController must re-home its domain.
	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	if err := n.StartController(3); err != nil {
		t.Fatal(err)
	}
	for _, sw := range dep.Controllers[3].Domain {
		if n.Switches[sw].Controller != 3 {
			t.Fatalf("switch %d not re-homed after the dust settled", sw)
		}
	}
}

func TestRestoreIdealReinstallsDemotedEntries(t *testing.T) {
	dep, flows, n := lifecycleFixture(t)
	// Pick a switch, serve its agent, and remove a couple of its entries to
	// simulate a recovery that demoted flows to legacy mode there.
	swID := dep.Controllers[3].Domain[0]
	sw := n.Switches[swID]
	agent, err := ServeSwitch(sw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()

	var onPath []flow.ID
	for l := range flows.Flows {
		f := &flows.Flows[l]
		for h := 0; h+1 < len(f.Path); h++ {
			if f.Path[h] == swID {
				onPath = append(onPath, f.ID)
				break
			}
		}
	}
	if len(onPath) < 2 {
		t.Fatalf("switch %d has only %d on-path flows", swID, len(onPath))
	}
	before := len(sw.entries)
	sw.RemoveEntry(onPath[0])
	sw.RemoveEntry(onPath[1])
	if len(sw.entries) != before-2 {
		t.Fatal("demotion setup failed")
	}

	addrs := map[topo.NodeID]string{swID: agent.Addr()}
	rep, err := RestoreIdeal(addrs, flows, []topo.NodeID{swID}, PushOptions{Seed: 1, GenerationID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("restore failed on %v", rep.Failed)
	}
	if rep.FlowModsAcked != len(onPath) {
		t.Fatalf("acked %d flow-mods, want %d", rep.FlowModsAcked, len(onPath))
	}
	if got := agent.FlowModsApplied(); got != len(onPath) {
		t.Fatalf("agent applied %d mods, want %d", got, len(onPath))
	}
	if out := rep.Outcomes[0]; out.Status != PushApplied || out.Attempts != 1 || out.Elapsed <= 0 {
		t.Fatalf("outcome %+v, want applied in one attempt with its elapsed time", out)
	}
	for _, lid := range onPath {
		if _, ok := agent.Entry(lid); !ok {
			t.Fatalf("flow %d entry missing after restore", lid)
		}
	}
}

func TestRestoreIdealReportsUnreachableSwitch(t *testing.T) {
	dep, flows, _ := lifecycleFixture(t)
	swID := dep.Controllers[3].Domain[0]
	// No agent registered: the switch is permanently unreachable.
	rep, err := RestoreIdeal(map[topo.NodeID]string{}, flows, []topo.NodeID{swID}, PushOptions{
		Seed: 1, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != swID {
		t.Fatalf("Failed = %v, want [%d]", rep.Failed, swID)
	}
}

func TestRehomeDomainOnlyForLiveControllers(t *testing.T) {
	dep, _, n := lifecycleFixture(t)
	ideal := n.MappingSnapshot()
	domain := dep.Controllers[3].Domain
	// A recovery adopted after controller 3 revived handed its domain away.
	n.ctrlMu.Lock()
	for _, sw := range domain {
		n.Switches[sw].Controller = 2
	}
	n.ctrlMu.Unlock()
	if !n.RehomeDomain(3) {
		t.Fatal("live controller 3 was not re-homed")
	}
	for sw, want := range ideal {
		if got := n.MappingSnapshot()[sw]; got != want {
			t.Fatalf("switch %d owned by %d after re-homing, ideal is %d", sw, got, want)
		}
	}

	if err := n.StopController(3); err != nil {
		t.Fatal(err)
	}
	if n.RehomeDomain(3) || n.RehomeDomain(-1) || n.RehomeDomain(len(n.Controllers)) {
		t.Fatal("a dead or unknown controller was re-homed")
	}
	for _, sw := range domain {
		if got := n.MappingSnapshot()[sw]; got != -1 {
			t.Fatalf("switch %d owned by %d while its controller is dead", sw, got)
		}
	}
}
