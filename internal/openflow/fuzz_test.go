package openflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadMessage holds the wire decoder to its contract on arbitrary bytes,
// read as a stream the way Conn.Recv reads a channel: every message is an
// error or a message, never a panic; the only length-sized allocation is the
// body, and DecodeHeader has bounded the declared length to
// [HeaderLen, MaxMessageLen] before it is made; and every accepted message
// re-encodes through AppendEncode and decodes again to an equal value.
func FuzzReadMessage(f *testing.F) {
	enc := func(msgs ...Message) []byte {
		var b []byte
		for i, m := range msgs {
			var err error
			if b, err = AppendEncode(b, m, uint32(i+1)); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	for _, m := range allMessages() {
		f.Add(enc(m))
	}
	// The corruption tests' inputs: bad version, unknown type, bad flow-mod
	// commands, bad role, a declared length below the header, truncations.
	corrupt := func(m Message, mut func(b []byte)) []byte {
		b := enc(m)
		mut(b)
		return b
	}
	f.Add(corrupt(Hello{}, func(b []byte) { b[0] = 0x01 }))
	f.Add(corrupt(Hello{}, func(b []byte) { b[1] = 0xEE }))
	f.Add(corrupt(FlowMod{Command: FlowAdd}, func(b []byte) { b[HeaderLen] = 99 }))
	// OpenFlow's delete-all flow-mod (command 3), which this subset does not
	// carry: it fails decode like any unknown command.
	f.Add(corrupt(FlowMod{Command: FlowDelete}, func(b []byte) { b[HeaderLen] = 3 }))
	f.Add(corrupt(RoleRequest{Role: RoleMaster}, func(b []byte) { byteOrder.PutUint32(b[HeaderLen:], 77) }))
	f.Add(corrupt(Hello{}, func(b []byte) { byteOrder.PutUint16(b[2:4], 3) }))
	f.Add(corrupt(Hello{}, func(b []byte) { byteOrder.PutUint16(b[2:4], MaxMessageLen) }))
	fm := enc(FlowMod{Command: FlowAdd, Match: Match{FlowID: 1}})
	f.Add(fm[:HeaderLen+5])
	f.Add(fm[:3])
	// A batched flow-mod frame as Conn.Flush writes it, barrier included.
	var batch []Message
	for i := 0; i < 8; i++ {
		batch = append(batch, FlowMod{Command: FlowAdd, Priority: 100, Match: Match{FlowID: uint32(i), Src: 1, Dst: 2}, NextHop: 3})
	}
	f.Add(enc(append(batch, BarrierRequest{})...))
	// Leftover reply frames a reused session drains before its next batch.
	f.Add(enc(BarrierReply{}, RoleReply{Role: RoleMaster, GenerationID: 64}, Echo{Reply: true, Data: []byte("x")}, ErrorMsg{Code: 3}))
	// A role reply carrying a switch's boot nonce.
	f.Add(enc(RoleReply{Role: RoleMaster, GenerationID: 65, Nonce: 0x0123456789abcdef}))
	// OpenFlow's features request and replies (types 5, 6; a reply's body is
	// datapath ID, table count and a hybrid flag), which this subset does not
	// carry: each fails decode like any unknown type.
	for _, fr := range []struct {
		typ  MsgType
		body []byte
	}{
		{5, nil},
		{6, []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 2, 1}},
		{6, []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0}},
	} {
		b := append(enc(Hello{}), fr.body...)
		b[1] = uint8(fr.typ)
		byteOrder.PutUint16(b[2:4], uint16(len(b)))
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			before := r.Len()
			msg, h, err := ReadMessage(r)
			if err != nil {
				return
			}
			if n := before - r.Len(); int(h.Length) != n || n < HeaderLen {
				t.Fatalf("accepted a %d-byte message declaring %d bytes", n, h.Length)
			}
			b, err := AppendEncode(nil, msg, h.XID)
			if err != nil {
				t.Fatalf("accepted %#v does not re-encode: %v", msg, err)
			}
			again, h2, err := ReadMessage(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("re-encoded %#v does not decode: %v", msg, err)
			}
			if h2.XID != h.XID || h2.Type != msg.MsgType() || !reflect.DeepEqual(normalize(again), normalize(msg)) {
				t.Fatalf("round trip: %#v (xid %d) became %#v (xid %d)", msg, h.XID, again, h2.XID)
			}
		}
	})
}
