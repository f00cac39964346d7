package sdnsim

import (
	"errors"
	"fmt"

	"pmedic/internal/core"
	"pmedic/internal/scenario"
)

// This file is the runtime controller-lifecycle surface of Network: killing
// and reviving controllers while the network keeps running, and adopting a
// recovery mapping computed outside the simulator. Unlike the packet walk and
// ApplyRecovery's table writes, everything here is safe to call concurrently
// — the online recovery daemon (internal/medic) adopts mappings from its
// reconcile loop while tests and chaos scripts kill and revive controllers
// from other goroutines.

// ErrControllerAlive reports a StartController on a controller that never
// stopped.
var ErrControllerAlive = errors.New("sdnsim: controller already alive")

// StopController kills one controller at runtime: every switch it currently
// masters — home-domain switches and any switch a recovery remapped to it —
// becomes unmanaged, exactly as when the controller process crashes. Installed
// data-plane state survives. The OnControllerChange hook, when set, fires
// after the state change so an attached probe endpoint can go dark.
//
// It is idempotent (stopping a dead controller is a no-op) and safe under
// concurrency with the rest of the lifecycle surface.
func (n *Network) StopController(j int) error {
	if j < 0 || j >= len(n.Controllers) {
		return fmt.Errorf("%w: %d", ErrBadController, j)
	}
	n.ctrlMu.Lock()
	if !n.Controllers[j].Alive {
		n.ctrlMu.Unlock()
		return nil
	}
	n.Controllers[j].Alive = false
	for _, sw := range n.Switches {
		if sw.Controller == j {
			sw.Controller = -1
		}
	}
	hook := n.OnControllerChange
	n.ctrlMu.Unlock()
	if hook != nil {
		hook(j, false)
	}
	return nil
}

// StartController revives a stopped controller and re-homes its domain: the
// switches of its deployment domain return to its mastership (the ideal
// mapping), whatever interim controller a recovery had assigned them to. The
// data-plane entries are not touched — restoring entries that a recovery
// demoted to legacy mode is the fail-back push's job (RestoreIdeal).
func (n *Network) StartController(j int) error {
	if j < 0 || j >= len(n.Controllers) {
		return fmt.Errorf("%w: %d", ErrBadController, j)
	}
	n.ctrlMu.Lock()
	if n.Controllers[j].Alive {
		n.ctrlMu.Unlock()
		return fmt.Errorf("%w: %d", ErrControllerAlive, j)
	}
	n.Controllers[j].Alive = true
	for _, sw := range n.Dep.Controllers[j].Domain {
		n.Switches[sw].Controller = j
	}
	hook := n.OnControllerChange
	n.ctrlMu.Unlock()
	if hook != nil {
		hook(j, true)
	}
	return nil
}

// RehomeDomain re-asserts controller j's mastership of its deployment domain
// and reports whether it did; a dead (or unknown) controller owns nothing
// and is left alone. StartController already re-homes at revival, but a
// recovery adopted afterwards — the daemon reconciling a failure set that
// still lists j, because the detector reported j's return in a later event —
// takes the domain away again. The fail-back push therefore ends with this
// call, so ownership and flow tables return together.
func (n *Network) RehomeDomain(j int) bool {
	if j < 0 || j >= len(n.Controllers) {
		return false
	}
	n.ctrlMu.Lock()
	defer n.ctrlMu.Unlock()
	if !n.Controllers[j].Alive {
		return false
	}
	for _, sw := range n.Dep.Controllers[j].Domain {
		n.Switches[sw].Controller = j
	}
	return true
}

// MappingSnapshot returns the current switch→controller ownership, -1 for
// unmanaged switches.
func (n *Network) MappingSnapshot() []int {
	n.ctrlMu.Lock()
	defer n.ctrlMu.Unlock()
	out := make([]int, len(n.Switches))
	for i, sw := range n.Switches {
		out[i] = sw.Controller
	}
	return out
}

// AdoptMapping records a pushed switch-mapping recovery in the network's
// ownership bookkeeping: instance switches mapped by the solution move under
// their assigned (deployment-indexed) controller, unmapped ones become
// unmanaged. It is ApplyRecovery's last step without the flow-mods — the
// daemon calls it after PushRecoveryResilient has already installed the
// data-plane state over the wire, so no flow-mods are replayed here. A
// mapping onto a missing or dead controller is refused whole: no switch
// moves.
func (n *Network) AdoptMapping(inst *scenario.Instance, sol *core.Solution) error {
	if sol.PairController != nil {
		return errors.New("sdnsim: flow-level solutions need a middle layer, not a switch mapping")
	}
	if len(sol.SwitchController) != len(inst.Switches) {
		return fmt.Errorf("sdnsim: adopt: solution maps %d switches, instance has %d",
			len(sol.SwitchController), len(inst.Switches))
	}
	n.ctrlMu.Lock()
	defer n.ctrlMu.Unlock()
	for _, jj := range sol.SwitchController {
		if jj < 0 {
			continue
		}
		ctrl := inst.Active[jj]
		if ctrl < 0 || ctrl >= len(n.Controllers) {
			return fmt.Errorf("%w: %d", ErrBadController, ctrl)
		}
		if !n.Controllers[ctrl].Alive {
			return fmt.Errorf("%w: controller %d", ErrControllerDown, ctrl)
		}
	}
	for i, jj := range sol.SwitchController {
		sw := n.Switches[inst.Switches[i]]
		if jj < 0 {
			sw.Controller = -1
			continue
		}
		ctrl := inst.Active[jj]
		if sw.Controller != ctrl {
			n.Stats.Remappings++
		}
		sw.Controller = ctrl
	}
	return nil
}
