package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// Codec errors.
var (
	ErrBadVersion  = errors.New("openflow: unsupported version")
	ErrBadType     = errors.New("openflow: unknown message type")
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrTooLong     = errors.New("openflow: message exceeds maximum length")
	ErrBadEncoding = errors.New("openflow: malformed body")
)

// MaxMessageLen bounds a single message on the wire (the uint16 length field
// caps it anyway; this constant documents it and guards encoders).
const MaxMessageLen = 1<<16 - 1

var byteOrder = binary.BigEndian

// AppendEncode appends msg's wire form, under a header carrying xid, to dst
// and returns the extended slice. When dst has room it allocates nothing,
// which is what lets a connection queue a whole batch of flow-mods into one
// write buffer. On error dst is returned unchanged.
func AppendEncode(dst []byte, msg Message, xid uint32) ([]byte, error) {
	start := len(dst)
	// The type byte comes from the switch rather than msg.MsgType(): a
	// dynamic call would make msg escape and cost every caller an allocation.
	var t MsgType
	b := append(dst, Version, 0, 0, 0, byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid))
	switch m := msg.(type) {
	case Hello:
		t = TypeHello
	case BarrierRequest:
		t = TypeBarrierRequest
	case BarrierReply:
		t = TypeBarrierReply
	case Echo:
		t = m.MsgType()
		b = append(b, m.Data...)
	case FlowMod:
		t = TypeFlowMod
		b = append(b, uint8(m.Command))
		b = byteOrder.AppendUint16(b, m.Priority)
		b = appendMatch(b, m.Match)
		b = byteOrder.AppendUint32(b, m.NextHop)
	case RoleRequest:
		t = TypeRoleRequest
		b = byteOrder.AppendUint32(b, uint32(m.Role))
		b = byteOrder.AppendUint64(b, m.GenerationID)
	case RoleReply:
		t = TypeRoleReply
		b = byteOrder.AppendUint32(b, uint32(m.Role))
		b = byteOrder.AppendUint64(b, m.GenerationID)
		b = byteOrder.AppendUint64(b, m.Nonce)
	case ErrorMsg:
		t = TypeError
		b = byteOrder.AppendUint16(b, m.Code)
		b = append(b, m.Data...)
	default:
		return dst, fmt.Errorf("%w: %s", ErrBadType, reflect.TypeOf(msg))
	}
	total := len(b) - start
	if total > MaxMessageLen {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLong, total)
	}
	b[start+1] = uint8(t)
	byteOrder.PutUint16(b[start+2:start+4], uint16(total))
	return b, nil
}

func appendMatch(b []byte, m Match) []byte {
	b = byteOrder.AppendUint32(b, m.FlowID)
	b = byteOrder.AppendUint32(b, m.Src)
	return byteOrder.AppendUint32(b, m.Dst)
}

func getMatch(b []byte) Match {
	return Match{
		FlowID: byteOrder.Uint32(b[0:4]),
		Src:    byteOrder.Uint32(b[4:8]),
		Dst:    byteOrder.Uint32(b[8:12]),
	}
}

// DecodeHeader parses the 8-byte header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, HeaderLen, len(b))
	}
	h := Header{
		Version: b[0],
		Type:    MsgType(b[1]),
		Length:  byteOrder.Uint16(b[2:4]),
		XID:     byteOrder.Uint32(b[4:8]),
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: %#x", ErrBadVersion, h.Version)
	}
	if int(h.Length) < HeaderLen {
		return Header{}, fmt.Errorf("%w: declared length %d below header size", ErrBadEncoding, h.Length)
	}
	return h, nil
}

func decodeBody(t MsgType, body []byte) (Message, error) {
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("%w: %v body needs %d bytes, have %d", ErrTruncated, t, n, len(body))
		}
		return nil
	}
	switch t {
	case TypeHello:
		return Hello{}, nil
	case TypeBarrierRequest:
		return BarrierRequest{}, nil
	case TypeBarrierReply:
		return BarrierReply{}, nil
	case TypeEchoRequest, TypeEchoReply:
		return Echo{Reply: t == TypeEchoReply, Data: append([]byte(nil), body...)}, nil
	case TypeFlowMod:
		if err := need(19); err != nil {
			return nil, err
		}
		cmd := FlowModCommand(body[0])
		if cmd < FlowAdd || cmd > FlowDeleteAll {
			return nil, fmt.Errorf("%w: flow-mod command %d", ErrBadEncoding, cmd)
		}
		return FlowMod{
			Command:  cmd,
			Priority: byteOrder.Uint16(body[1:3]),
			Match:    getMatch(body[3:15]),
			NextHop:  byteOrder.Uint32(body[15:19]),
		}, nil
	case TypeRoleRequest, TypeRoleReply:
		n := 12
		if t == TypeRoleReply {
			n = 20 // and the boot nonce
		}
		if err := need(n); err != nil {
			return nil, err
		}
		role := ControllerRole(byteOrder.Uint32(body[0:4]))
		gen := byteOrder.Uint64(body[4:12])
		if role < RoleEqual || role > RoleSlave {
			return nil, fmt.Errorf("%w: role %d", ErrBadEncoding, role)
		}
		if t == TypeRoleRequest {
			return RoleRequest{Role: role, GenerationID: gen}, nil
		}
		return RoleReply{Role: role, GenerationID: gen, Nonce: byteOrder.Uint64(body[12:20])}, nil
	case TypeError:
		if err := need(2); err != nil {
			return nil, err
		}
		return ErrorMsg{
			Code: byteOrder.Uint16(body[0:2]),
			Data: append([]byte(nil), body[2:]...),
		}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}

// ReadMessage reads exactly one message from r (blocking until a full
// message arrives) and returns it with its header.
func ReadMessage(r io.Reader) (Message, Header, error) {
	var hb [HeaderLen]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, Header{}, err
	}
	h, err := DecodeHeader(hb[:])
	if err != nil {
		return nil, Header{}, err
	}
	body := make([]byte, int(h.Length)-HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, Header{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	msg, err := decodeBody(h.Type, body)
	if err != nil {
		return nil, Header{}, err
	}
	return msg, h, nil
}
