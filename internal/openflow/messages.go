// Package openflow implements the control-channel wire protocol the
// simulated switches and controllers speak: an OpenFlow-1.3-flavored message
// set (hello/echo, flow-mod, role, barrier, error)
// with a binary codec and a TCP connection wrapper. The subset covers what
// programmability recovery needs — installing and removing flow entries,
// claiming the master role over a re-mapped switch, and liveness probing.
package openflow

import "fmt"

// Version is the protocol version byte carried by every header (0x04 as in
// OpenFlow 1.3, whose switch specification the paper cites).
const Version uint8 = 0x04

// MsgType discriminates message bodies.
type MsgType uint8

// Message types. Each keeps its wire number; 5 to 8 are unassigned.
const (
	TypeHello          MsgType = 1
	TypeError          MsgType = 2
	TypeEchoRequest    MsgType = 3
	TypeEchoReply      MsgType = 4
	TypeFlowMod        MsgType = 9
	TypeRoleRequest    MsgType = 10
	TypeRoleReply      MsgType = 11
	TypeBarrierRequest MsgType = 12
	TypeBarrierReply   MsgType = 13
)

// String renders the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeError:
		return "error"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFlowMod:
		return "flow-mod"
	case TypeRoleRequest:
		return "role-request"
	case TypeRoleReply:
		return "role-reply"
	case TypeBarrierRequest:
		return "barrier-request"
	case TypeBarrierReply:
		return "barrier-reply"
	default:
		return fmt.Sprintf("openflow.MsgType(%d)", uint8(t))
	}
}

// Header precedes every message on the wire: 8 bytes, big-endian.
type Header struct {
	Version uint8
	Type    MsgType
	Length  uint16 // total message length including the header
	XID     uint32
}

// HeaderLen is the encoded header size in bytes.
const HeaderLen = 4 + 4

// Message is any body that can ride under a Header.
type Message interface {
	// MsgType identifies the body's wire type.
	MsgType() MsgType
}

// Hello opens a control channel; both sides send one.
type Hello struct{}

// MsgType implements Message.
func (Hello) MsgType() MsgType { return TypeHello }

// Echo is a liveness probe (request) or its mirror (reply).
type Echo struct {
	Reply bool
	Data  []byte
}

// MsgType implements Message.
func (e Echo) MsgType() MsgType {
	if e.Reply {
		return TypeEchoReply
	}
	return TypeEchoRequest
}

// Match selects packets of one flow. The reproduction's flows are identified
// end-to-end, so an exact ternary match suffices: flow ID plus endpoints.
type Match struct {
	FlowID uint32
	Src    uint32
	Dst    uint32
}

// FlowModCommand selects the flow-table operation.
type FlowModCommand uint8

// Flow-mod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowDelete
	FlowDeleteAll
)

// FlowMod installs or removes a flow entry: on match, forward to NextHop.
type FlowMod struct {
	Command  FlowModCommand
	Priority uint16
	Match    Match
	NextHop  uint32
}

// MsgType implements Message.
func (FlowMod) MsgType() MsgType { return TypeFlowMod }

// ControllerRole is the OpenFlow multi-controller role.
type ControllerRole uint32

// Controller roles.
const (
	RoleEqual ControllerRole = iota + 1
	RoleMaster
	RoleSlave
)

// RoleRequest claims or queries a controller role; recovery uses it to make
// an active controller the master of a re-mapped offline switch.
type RoleRequest struct {
	Role         ControllerRole
	GenerationID uint64
}

// MsgType implements Message.
func (RoleRequest) MsgType() MsgType { return TypeRoleRequest }

// RoleReply confirms the negotiated role. Nonce is the switch's boot nonce,
// drawn each time its agent starts: a controller that sees it change knows
// the switch restarted and may have lost its flow table.
type RoleReply struct {
	Role         ControllerRole
	GenerationID uint64
	Nonce        uint64
}

// MsgType implements Message.
func (RoleReply) MsgType() MsgType { return TypeRoleReply }

// BarrierRequest forces ordering: the switch answers only after processing
// everything received before it.
type BarrierRequest struct{}

// MsgType implements Message.
func (BarrierRequest) MsgType() MsgType { return TypeBarrierRequest }

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{}

// MsgType implements Message.
func (BarrierReply) MsgType() MsgType { return TypeBarrierReply }

// ErrorMsg reports a protocol failure.
type ErrorMsg struct {
	Code uint16
	Data []byte
}

// MsgType implements Message.
func (ErrorMsg) MsgType() MsgType { return TypeError }

// Error codes carried by ErrorMsg.
const (
	// ErrCodeRoleStale rejects a Master/Slave RoleRequest whose generation
	// ID is behind the switch's recorded one (the OpenFlow 1.3 stale-message
	// defense against delayed mastership claims). Data carries the switch's
	// current generation ID as 8 big-endian bytes, so the controller can
	// resynchronize and retry.
	ErrCodeRoleStale uint16 = 1
)

// RemoteError is a peer's ErrorMsg surfaced as a Go error by the
// request/reply helpers.
type RemoteError struct {
	Code uint16
	Data []byte
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("openflow: remote error code %d (%d data bytes)", e.Code, len(e.Data))
}

// StaleGeneration decodes the switch's current generation ID from a
// role-stale error; ok is false for other codes or malformed payloads.
func (e *RemoteError) StaleGeneration() (gen uint64, ok bool) {
	if e.Code != ErrCodeRoleStale || len(e.Data) < 8 {
		return 0, false
	}
	var g uint64
	for _, b := range e.Data[:8] {
		g = g<<8 | uint64(b)
	}
	return g, true
}
