package openflow

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// roundTrip encodes and re-decodes a message, failing on any mismatch.
func roundTrip(t *testing.T, msg Message, xid uint32) {
	t.Helper()
	buf, err := AppendEncode(nil, msg, xid)
	if err != nil {
		t.Fatalf("AppendEncode(%T): %v", msg, err)
	}
	got, h, err := ReadMessage(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadMessage(bytes.NewReader(%T)): %v", msg, err)
	}
	if h.XID != xid {
		t.Fatalf("xid = %d, want %d", h.XID, xid)
	}
	if h.Type != msg.MsgType() {
		t.Fatalf("type = %v, want %v", h.Type, msg.MsgType())
	}
	if int(h.Length) != len(buf) {
		t.Fatalf("length = %d, buffer %d", h.Length, len(buf))
	}
	// Normalize nil vs empty slices before the deep comparison.
	if !reflect.DeepEqual(normalize(got), normalize(msg)) {
		t.Fatalf("round trip: got %#v, want %#v", got, msg)
	}
}

func normalize(m Message) Message {
	switch v := m.(type) {
	case Echo:
		if len(v.Data) == 0 {
			v.Data = nil
		}
		return v
	case ErrorMsg:
		if len(v.Data) == 0 {
			v.Data = nil
		}
		return v
	default:
		return m
	}
}

// allMessages has at least one message of every wire type, with and without
// the optional payloads.
func allMessages() []Message {
	match := Match{FlowID: 7, Src: 3, Dst: 21}
	return []Message{
		Hello{},
		Echo{Data: []byte("ping")},
		Echo{Reply: true, Data: []byte("pong")},
		Echo{},
		FlowMod{Command: FlowAdd, Priority: 100, Match: match, NextHop: 9},
		FlowMod{Command: FlowDelete, Match: match},
		RoleRequest{Role: RoleMaster, GenerationID: 42},
		RoleReply{Role: RoleSlave, GenerationID: 43},
		RoleReply{Role: RoleMaster, GenerationID: 44, Nonce: 0x9e3779b97f4a7c15},
		BarrierRequest{},
		BarrierReply{},
		ErrorMsg{Code: 17, Data: []byte("bad flow mod")},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for i, m := range allMessages() {
		roundTrip(t, m, uint32(i*13+1))
	}
}

// TestAppendEncodeMatchesEncode checks that appending to a buffer writes the
// same bytes as encoding into an empty one, for every message type, and
// leaves what was already in the buffer alone — on success and on error.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	prefix := []byte("queued before")
	for i, m := range allMessages() {
		xid := uint32(i*13 + 1)
		want, err := AppendEncode(nil, m, xid)
		if err != nil {
			t.Fatalf("AppendEncode(%T): %v", m, err)
		}
		if want[1] != uint8(m.MsgType()) {
			t.Fatalf("%T: type byte %d, want %d", m, want[1], m.MsgType())
		}
		got, err := AppendEncode(append([]byte(nil), prefix...), m, xid)
		if err != nil {
			t.Fatalf("AppendEncode(%T): %v", m, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%T: AppendEncode = %x, want %x after the prefix", m, got[len(prefix):], want)
		}
	}
	got, err := AppendEncode(prefix, Echo{Data: make([]byte, MaxMessageLen)}, 1)
	if !errors.Is(err, ErrTooLong) || !bytes.Equal(got, prefix) {
		t.Fatalf("oversized message: buffer %q, error %v", got, err)
	}
	type alien struct{ Hello }
	got, err = AppendEncode(prefix, alien{}, 1)
	if !errors.Is(err, ErrBadType) || !bytes.Equal(got, prefix) {
		t.Fatalf("unknown message: buffer %q, error %v", got, err)
	}
}

func TestRoundTripEchoQuick(t *testing.T) {
	f := func(data []byte, xid uint32, reply bool) bool {
		if len(data) > MaxMessageLen-HeaderLen {
			data = data[:MaxMessageLen-HeaderLen]
		}
		msg := Echo{Reply: reply, Data: data}
		buf, err := AppendEncode(nil, msg, xid)
		if err != nil {
			return false
		}
		got, h, err := ReadMessage(bytes.NewReader(buf))
		if err != nil || h.XID != xid {
			return false
		}
		e, ok := got.(Echo)
		return ok && e.Reply == reply && bytes.Equal(e.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFlowModQuick(t *testing.T) {
	f := func(prio uint16, flowID, src, dst, nh uint32, cmdSel uint8) bool {
		cmd := FlowModCommand(cmdSel%2) + FlowAdd
		msg := FlowMod{
			Command:  cmd,
			Priority: prio,
			Match:    Match{FlowID: flowID, Src: src, Dst: dst},
			NextHop:  nh,
		}
		buf, err := AppendEncode(nil, msg, 1)
		if err != nil {
			return false
		}
		got, _, err := ReadMessage(bytes.NewReader(buf))
		if err != nil {
			return false
		}
		fm, ok := got.(FlowMod)
		return ok && fm == msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	buf, err := AppendEncode(nil, Hello{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x01
	if _, _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("error = %v, want ErrBadVersion", err)
	}
}

// TestDecodeRejectsUnknownType: an unassigned type code fails decode,
// OpenFlow's features request and reply (5, 6), which this subset does not
// carry, included.
func TestDecodeRejectsUnknownType(t *testing.T) {
	for _, typ := range []byte{5, 6, 0xEE} {
		buf, err := AppendEncode(nil, Hello{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf[1] = typ
		if _, _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrBadType) {
			t.Fatalf("type %d: error = %v, want ErrBadType", typ, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range []Message{FlowMod{Command: FlowAdd, Match: Match{FlowID: 1}}, Echo{Data: []byte("abc")}} {
		buf, err := AppendEncode(nil, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := ReadMessage(bytes.NewReader(buf[:cut])); err == nil {
				t.Fatalf("ReadMessage accepted a %d-byte prefix of a %d-byte %T", cut, len(buf), m)
			}
		}
	}
}

// TestRoleReplyCarriesTheBootNonce: a role reply's body is the role, the
// generation and the switch's boot nonce, 20 bytes; a 12-byte one, a role
// request's length, is truncated.
func TestRoleReplyCarriesTheBootNonce(t *testing.T) {
	reply := RoleReply{Role: RoleMaster, GenerationID: 1 << 40, Nonce: 0xfeedfacecafebeef}
	buf, err := AppendEncode(nil, reply, 7)
	if err != nil {
		t.Fatal(err)
	}
	if body := len(buf) - HeaderLen; body != 20 {
		t.Fatalf("role reply body is %d bytes, want 20", body)
	}
	roundTrip(t, reply, 7)
	short := append([]byte(nil), buf[:HeaderLen+12]...)
	byteOrder.PutUint16(short[2:4], uint16(len(short)))
	if _, _, err := ReadMessage(bytes.NewReader(short)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("12-byte role reply: error %v, want ErrTruncated", err)
	}
}

// TestDecodeRejectsBadFlowModCommand: a command other than add and delete
// fails decode, OpenFlow's delete-all (3), which this subset does not carry,
// included.
func TestDecodeRejectsBadFlowModCommand(t *testing.T) {
	for _, cmd := range []byte{0, 3, 99} {
		buf, err := AppendEncode(nil, FlowMod{Command: FlowAdd, Match: Match{}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf[HeaderLen] = cmd
		if _, _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("command %d: error = %v, want ErrBadEncoding", cmd, err)
		}
	}
}

func TestDecodeRejectsBadRole(t *testing.T) {
	buf, err := AppendEncode(nil, RoleRequest{Role: RoleMaster}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byteOrder.PutUint32(buf[HeaderLen:], 77)
	if _, _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("error = %v, want ErrBadEncoding", err)
	}
}

func TestDecodeDeclaredLengthBelowHeader(t *testing.T) {
	buf, err := AppendEncode(nil, Hello{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byteOrder.PutUint16(buf[2:4], 3)
	if _, _, err := ReadMessage(bytes.NewReader(buf)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("error = %v, want ErrBadEncoding", err)
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	big := Echo{Data: make([]byte, MaxMessageLen)}
	if _, err := AppendEncode(nil, big, 1); !errors.Is(err, ErrTooLong) {
		t.Fatalf("error = %v, want ErrTooLong", err)
	}
}

func TestReadMessageStream(t *testing.T) {
	var stream bytes.Buffer
	want := []Message{
		Hello{},
		FlowMod{Command: FlowAdd, Priority: 9, Match: Match{FlowID: 4, Src: 1, Dst: 2}, NextHop: 3},
		Echo{Data: []byte("x")},
		BarrierRequest{},
	}
	for i, m := range want {
		b, err := AppendEncode(nil, m, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}
	for i, wantMsg := range want {
		got, h, err := ReadMessage(&stream)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if h.XID != uint32(i) {
			t.Fatalf("message %d xid = %d", i, h.XID)
		}
		if !reflect.DeepEqual(normalize(got), normalize(wantMsg)) {
			t.Fatalf("message %d: got %#v want %#v", i, got, wantMsg)
		}
	}
}

func TestDecodeMutatedBytesNeverPanics(t *testing.T) {
	seed, err := AppendEncode(nil, Echo{Data: []byte("abc")}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(seed); pos++ {
		for _, val := range []byte{0x00, 0x01, 0x7f, 0xff} {
			mut := append([]byte(nil), seed...)
			mut[pos] = val
			// Must not panic; errors are fine.
			_, _, _ = ReadMessage(bytes.NewReader(mut))
		}
	}
}
