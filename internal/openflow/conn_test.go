package openflow

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestHandshakeOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = ca.Handshake() }()
	go func() { defer wg.Done(); errs[1] = cb.Handshake() }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("side %d: %v", i, err)
		}
	}
	_ = ca.Close()
	_ = cb.Close()
}

func TestSendRecvOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	want := FlowMod{Command: FlowAdd, Priority: 50, Match: Match{FlowID: 11, Src: 0, Dst: 24}, NextHop: 13}
	done := make(chan error, 1)
	go func() {
		_, err := ca.Send(want)
		done <- err
	}()
	got, h, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fm, ok := got.(FlowMod)
	if !ok || fm != want {
		t.Fatalf("got %#v (xid %d)", got, h.XID)
	}
}

// writeLog is a transport that records every Write it receives (or, when
// quiet, just accepts it).
type writeLog struct {
	writes [][]byte
	quiet  bool
	err    error // returned by Write when set
}

func (w *writeLog) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if !w.quiet {
		w.writes = append(w.writes, append([]byte(nil), p...))
	}
	return len(p), nil
}
func (w *writeLog) Read([]byte) (int, error) { return 0, io.EOF }
func (w *writeLog) Close() error             { return nil }

// TestQueueFlushIsOneWrite pins the batch path: queued messages reach the
// transport in exactly one Write per Flush whatever their number (also past
// the buffer's initial capacity), in order, under the XIDs Queue returned;
// a Send delivers what was queued before it in the same Write.
func TestQueueFlushIsOneWrite(t *testing.T) {
	for _, n := range []int{1, 50, 200, 2000} {
		tr := &writeLog{}
		c := NewConn(tr)
		var want []byte
		for i := 0; i < n; i++ {
			m := FlowMod{Command: FlowAdd, Priority: 100, Match: Match{FlowID: uint32(i)}, NextHop: 3}
			xid, err := c.Queue(m)
			if err != nil {
				t.Fatal(err)
			}
			enc, _ := AppendEncode(nil, m, xid)
			want = append(want, enc...)
		}
		if len(tr.writes) != 0 {
			t.Fatalf("n=%d: Queue wrote to the transport", n)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(tr.writes) != 1 || !bytes.Equal(tr.writes[0], want) {
			t.Fatalf("n=%d: %d transport writes, want 1 carrying the whole batch", n, len(tr.writes))
		}
		if err := c.Flush(); err != nil || len(tr.writes) != 1 {
			t.Fatalf("n=%d: empty Flush wrote (%d writes, err %v)", n, len(tr.writes), err)
		}
	}

	tr := &writeLog{}
	c := NewConn(tr)
	x1, _ := c.Queue(BarrierRequest{})
	x2, err := c.Send(Hello{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := AppendEncode(nil, BarrierRequest{}, x1)
	b, _ := AppendEncode(nil, Hello{}, x2)
	if len(tr.writes) != 1 || !bytes.Equal(tr.writes[0], append(a, b...)) {
		t.Fatalf("Send after Queue: writes %x", tr.writes)
	}

	// A failed flush drops the batch: the next one starts clean.
	tr.err = errors.New("boom")
	if _, err := c.Queue(Hello{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush swallowed the transport's error")
	}
	tr.err, tr.writes = nil, nil
	x3, _ := c.Queue(BarrierRequest{})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if want, _ := AppendEncode(nil, BarrierRequest{}, x3); len(tr.writes) != 1 || !bytes.Equal(tr.writes[0], want) {
		t.Fatalf("flush after a failed one carried %x", tr.writes)
	}
}

func TestQueueFlowModDoesNotAllocate(t *testing.T) {
	c := NewConn(&writeLog{quiet: true})
	m := FlowMod{Command: FlowAdd, Priority: 100, Match: Match{FlowID: 7, Src: 3, Dst: 21}, NextHop: 9}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 200; i++ {
			if _, err := c.Queue(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("queuing and flushing 200 flow-mods allocates %v times, want 0", allocs)
	}
}

// TestQueueConcurrentWithSend runs the batch path against concurrent Sends
// (the race detector's target): every frame must arrive whole.
func TestQueueConcurrentWithSend(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	const perSender = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perSender; i++ {
			if _, err := ca.Queue(BarrierRequest{}); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 9 {
				if err := ca.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perSender; i++ {
			if _, err := ca.Send(Echo{Data: []byte("x")}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := make(map[uint32]bool)
	for i := 0; i < 2*perSender; i++ {
		_, h, err := cb.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if seen[h.XID] {
			t.Fatalf("xid %d delivered twice", h.XID)
		}
		seen[h.XID] = true
	}
	wg.Wait()
}

func TestXIDsMonotone(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := ca.Send(Hello{}); err != nil {
				return
			}
		}
	}()
	var last uint32
	for i := 0; i < 3; i++ {
		_, h, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if h.XID <= last {
			t.Fatalf("xid %d not increasing past %d", h.XID, last)
		}
		last = h.XID
	}
}

// answerPings is a Server handler that answers Echo requests until the
// channel ends.
func answerPings(c *Conn) {
	for {
		msg, h, err := c.Recv()
		if err != nil {
			return
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			if c.SendXID(Echo{Reply: true, Data: e.Data}, h.XID) != nil {
				return
			}
		}
	}
}

func TestTCPDialListen(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", answerPings)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	client, err := DialTimeout(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	// Echo request/reply with matching XIDs across real TCP.
	xid, err := client.Send(Echo{Data: []byte("alive?")})
	if err != nil {
		t.Fatal(err)
	}
	reply, rh, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rh.XID != xid {
		t.Fatalf("reply xid = %d, want %d", rh.XID, xid)
	}
	if rep, ok := reply.(Echo); !ok || !rep.Reply || string(rep.Data) != "alive?" {
		t.Fatalf("reply = %#v", reply)
	}
}

// silentClient connects to addr over TCP and never sends its Hello.
func silentClient(t *testing.T, addr string) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
}

// checkSilentClientBlocksNoOne connects a silent client to addr first; a dial
// and a ping behind it must still succeed, and close must end its
// handshaking channel instead of waiting out the handshake bound.
func checkSilentClientBlocksNoOne(t *testing.T, addr string, close func() error) {
	t.Helper()
	silentClient(t, addr)
	conn, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatalf("dial behind a silent client: %v", err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetIOTimeout(time.Second)
	if err := conn.Ping([]byte("behind")); err != nil {
		t.Fatalf("ping behind a silent client: %v", err)
	}
	start := time.Now()
	if err := close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Close took %v beside a silent client", took)
	}
}

func TestServerSilentClientBlocksNoOne(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", answerPings)
	if err != nil {
		t.Fatal(err)
	}
	checkSilentClientBlocksNoOne(t, srv.Addr(), srv.Close)
}

func TestDialTimeoutUnresponsivePeer(t *testing.T) {
	// A raw TCP listener that accepts but never speaks: the handshake can
	// never complete, so DialTimeout must give up instead of hanging.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
			// Swallow the client's hello, reply with nothing.
			_, _ = c.Read(make([]byte, 64))
		}
	}()

	start := time.Now()
	_, err = DialTimeout(l.Addr().String(), 150*time.Millisecond)
	if err == nil {
		t.Fatal("DialTimeout succeeded against a mute peer")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialTimeout took %v, want prompt failure", elapsed)
	}
}

// TestAcceptTimesOutOnMuteClient: a channel whose client never sends its
// Hello is closed at the handshake bound, and its handler never runs.
func TestAcceptTimesOutOnMuteClient(t *testing.T) {
	const bound = 150 * time.Millisecond
	handshakeTimeout = bound
	t.Cleanup(func() { handshakeTimeout = DefaultHandshakeTimeout })
	handled := make(chan struct{}, 1)
	srv, err := Serve("127.0.0.1:0", func(*Conn) { handled <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	start := time.Now()
	_ = nc.SetReadDeadline(start.Add(5 * time.Second))
	// The server's Hello arrives, then EOF once the bound has passed.
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("mute channel still open: %v", err)
	}
	if took := time.Since(start); took < bound-50*time.Millisecond {
		t.Fatalf("mute channel closed after %v, before the %v bound", took, bound)
	}
	select {
	case <-handled:
		t.Fatal("the handler ran on a channel that never handshook")
	default:
	}
}

func TestRequestMatchesXIDThroughInterleavedTraffic(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()

	serverDone := make(chan error, 1)
	go func() {
		serverDone <- func() error {
			msg, h, err := server.Recv()
			if err != nil {
				return err
			}
			if _, ok := msg.(BarrierRequest); !ok {
				return fmt.Errorf("server got %v", msg.MsgType())
			}
			// Interleave: an unrelated unsolicited reply, then an echo
			// request, then the real barrier reply.
			if err := server.SendXID(RoleReply{Role: RoleEqual, GenerationID: 0}, h.XID+100); err != nil {
				return err
			}
			if _, err := server.Send(Echo{Data: []byte("keepalive")}); err != nil {
				return err
			}
			// The client must answer our echo request while it waits for the
			// barrier reply; consume the answer before sending that reply, as
			// net.Pipe is fully synchronous.
			reply, _, err := server.Recv()
			if err != nil {
				return err
			}
			if e, ok := reply.(Echo); !ok || !e.Reply || string(e.Data) != "keepalive" {
				return fmt.Errorf("echo reply = %#v", reply)
			}
			return server.SendXID(BarrierReply{}, h.XID)
		}()
	}()

	msg, _, err := client.Request(BarrierRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(BarrierReply); !ok {
		t.Fatalf("request returned %v, want barrier reply", msg.MsgType())
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestRequestSurfacesRemoteError(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()
	go func() {
		msg, h, err := server.Recv()
		if err != nil {
			return
		}
		if _, ok := msg.(RoleRequest); !ok {
			return
		}
		gen := make([]byte, 8)
		gen[7] = 9
		_ = server.SendXID(ErrorMsg{Code: ErrCodeRoleStale, Data: gen}, h.XID)
	}()

	_, _, err := client.Request(RoleRequest{Role: RoleMaster, GenerationID: 1})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *RemoteError", err)
	}
	if re.Code != ErrCodeRoleStale {
		t.Fatalf("code = %d", re.Code)
	}
	if gen, ok := re.StaleGeneration(); !ok || gen != 9 {
		t.Fatalf("stale generation = %d, %v", gen, ok)
	}
}

func TestPingAndIOTimeout(t *testing.T) {
	a, b := net.Pipe()
	client, server := NewConn(a), NewConn(b)
	defer func() {
		_ = client.Close()
		_ = server.Close()
	}()
	// A live peer answers the probe.
	go func() {
		msg, h, err := server.Recv()
		if err != nil {
			return
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			_ = server.SendXID(Echo{Reply: true, Data: e.Data}, h.XID)
		}
	}()
	if !client.SetIOTimeout(time.Second) {
		t.Fatal("net.Pipe should support deadlines")
	}
	if err := client.Ping([]byte("alive?")); err != nil {
		t.Fatal(err)
	}
	// A mute peer makes the next probe time out instead of hanging.
	client.SetIOTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := client.Ping([]byte("anyone?")); err == nil {
		t.Fatal("ping against a mute peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ping took %v, want prompt timeout", elapsed)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer func() {
		_ = ca.Close()
		_ = cb.Close()
	}()
	errCh := make(chan error, 1)
	go func() { errCh <- ca.Handshake() }()
	// Peer misbehaves: sends a BarrierRequest first.
	if _, _, err := cb.Recv(); err != nil { // consume ca's hello
		t.Fatal(err)
	}
	if _, err := cb.Send(BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("handshake accepted a non-hello first message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake did not finish")
	}
}
