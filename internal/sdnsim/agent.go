package sdnsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/topo"
)

// Agent exposes one simulated switch as a network service speaking the
// openflow wire protocol: a recovery controller can dial it, take the
// master role, and install or remove flow entries over real TCP. It applies
// each flow-mod with Switch.Apply, as Network.ApplyRecovery does in process,
// so the wire and the in-process path share one translation to table state.
//
// The embedded Server holds the controller channels. A controller may hold
// one open indefinitely (Sessions), so Close ends them itself — the switch
// going away under its sessions — rather than wait for the peer to hang up.
type Agent struct {
	*openflow.Server
	// nonce is the boot nonce every role reply carries (openflow.RoleReply).
	nonce uint64

	mu       sync.Mutex
	sw       *Switch
	role     openflow.ControllerRole
	gen      uint64
	genSet   bool
	flowMods int
	refused  int
}

// ServeSwitch starts an agent for sw on addr (e.g. "127.0.0.1:0"). The
// agent serves controller channels until Close.
func ServeSwitch(sw *Switch, addr string) (*Agent, error) {
	a := &Agent{nonce: rand.Uint64(), sw: sw, role: openflow.RoleEqual}
	srv, err := openflow.Serve(addr, a.serve)
	if err != nil {
		return nil, fmt.Errorf("sdnsim: agent for switch %d: %w", sw.ID, err)
	}
	a.Server = srv
	return a, nil
}

// Role returns the currently negotiated controller role.
func (a *Agent) Role() openflow.ControllerRole {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.role
}

// GenerationID returns the highest Master/Slave generation ID accepted so
// far; ok is false while no such role request has been accepted.
func (a *Agent) GenerationID() (gen uint64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen, a.genSet
}

// FlowModsApplied returns the number of flow-mods the agent has applied.
func (a *Agent) FlowModsApplied() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flowMods
}

// FlowModsRefused returns the number of flow-mods the agent discarded
// because they arrived on a fenced connection (see connClaim).
func (a *Agent) FlowModsRefused() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.refused
}

// Entry returns the switch's entry for a flow, safely.
func (a *Agent) Entry(id flow.ID) (FlowEntry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sw.Entry(id)
}

// connClaim is one connection's standing with the switch-side fence: the
// generation of its last Master/Slave claim and whether that claim was
// refused as stale. The push driver sends its flow-mods in the same flush as
// its claim, before it can know the answer, so the refusal has to bind here.
type connClaim struct {
	made    bool
	refused bool
	gen     uint64
}

// fenced reports whether flow-mods from the connection must be discarded:
// its claim was refused, or an accepted one has since been superseded by a
// newer generation from another connection (a deposed leader still talking).
// A connection that never claimed is not fenced. Callers hold a.mu.
func (a *Agent) fenced(c connClaim) bool {
	return c.refused || (c.made && int64(c.gen-a.gen) < 0)
}

// serve handles one controller channel until it closes.
func (a *Agent) serve(conn *openflow.Conn) {
	var claim connClaim
	for {
		msg, h, err := conn.Recv()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case openflow.RoleRequest:
			err = a.handleRole(conn, m, h, &claim)
		case openflow.FlowMod:
			a.mu.Lock()
			if a.fenced(claim) {
				a.refused++
				a.mu.Unlock()
				continue
			}
			a.sw.Apply(m)
			a.flowMods++
			a.mu.Unlock()
		case openflow.BarrierRequest:
			err = conn.SendXID(openflow.BarrierReply{}, h.XID)
		case openflow.Echo:
			if !m.Reply {
				err = conn.SendXID(openflow.Echo{Reply: true, Data: m.Data}, h.XID)
			}
		}
		if err != nil {
			return
		}
	}
}

// handleRole enforces the OpenFlow 1.3 generation-ID semantics: Master and
// Slave requests carry a monotonically increasing (circularly compared)
// generation ID, and a request older than the highest one seen is refused
// with a role-stale error carrying the current generation — the defense
// against a delayed mastership claim from a stale controller re-taking a
// switch after a newer recovery already claimed it. The verdict is recorded
// in the connection's claim, which gates its flow-mods from then on.
func (a *Agent) handleRole(conn *openflow.Conn, m openflow.RoleRequest, h openflow.Header, claim *connClaim) error {
	a.mu.Lock()
	stale := false
	if m.Role == openflow.RoleMaster || m.Role == openflow.RoleSlave {
		if a.genSet && int64(m.GenerationID-a.gen) < 0 {
			stale = true
		} else {
			a.gen, a.genSet = m.GenerationID, true
		}
		*claim = connClaim{made: true, refused: stale, gen: m.GenerationID}
	}
	cur := a.gen
	if !stale {
		a.role = m.Role
	}
	a.mu.Unlock()
	if stale {
		var data [8]byte
		binary.BigEndian.PutUint64(data[:], cur)
		return conn.SendXID(openflow.ErrorMsg{Code: openflow.ErrCodeRoleStale, Data: data[:]}, h.XID)
	}
	return conn.SendXID(openflow.RoleReply{Role: m.Role, GenerationID: m.GenerationID, Nonce: a.nonce}, h.XID)
}

// ErrAgentMissing reports a recovery push that has no agent for a switch it
// must reconfigure.
var ErrAgentMissing = errors.New("sdnsim: no agent for switch")

// AgentAddrs extracts the dialable address registry of an agent set, the
// form the resilient push driver consumes.
func AgentAddrs(agents map[topo.NodeID]*Agent) map[topo.NodeID]string {
	addrs := make(map[topo.NodeID]string, len(agents))
	for id, a := range agents {
		addrs[id] = a.Addr()
	}
	return addrs
}
