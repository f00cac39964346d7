package openflow

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// writeBufferLen is the write buffer's initial capacity: room for the batch
// a busy switch gets in one push session (about 200 flow-mods of 27 bytes,
// a role request and a barrier) without growing. Larger batches grow it.
const writeBufferLen = 8 << 10

// deadliner is the deadline surface of net.Conn (and of transports, such as
// the chaos layer, that forward it).
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Conn is a control channel over a byte stream: buffered framing, an XID
// counter, per-operation deadlines, and the opening Hello handshake. Reads
// and writes may proceed concurrently from one goroutine each; Send, Queue
// and Flush may additionally be called from multiple goroutines.
//
// Writes go through one buffer that reaches the transport in a single Write
// per flush. Send flushes after its message; Queue does not, so a caller
// that has many messages for the peer (a push session's role claim,
// flow-mods and barrier) pays the transport once per batch instead of once
// per message.
//
// A Conn whose Recv fails with a timeout may have consumed part of a frame
// and is no longer usable for further traffic; close and redial.
type Conn struct {
	raw io.ReadWriteCloser
	dl  deadliner // nil when the transport has no deadline support
	r   *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte // encoded messages not yet written to raw

	xid     atomic.Uint32
	timeout atomic.Int64 // per-operation deadline, ns; 0 = none
}

// NewConn wraps a transport. For TCP, pass the *net.TCPConn (any
// io.ReadWriteCloser works, e.g. net.Pipe ends in tests). When the transport
// exposes SetReadDeadline/SetWriteDeadline, SetIOTimeout can arm
// per-operation deadlines.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	c := &Conn{
		raw:  rwc,
		r:    bufio.NewReader(rwc),
		wbuf: make([]byte, 0, writeBufferLen),
	}
	if dl, ok := rwc.(deadliner); ok {
		c.dl = dl
	}
	return c
}

// SetIOTimeout arms a deadline applied independently to every subsequent
// Recv and Send; d <= 0 clears it. It reports whether the underlying
// transport supports deadlines (false means nothing was armed and
// operations can still block forever).
func (c *Conn) SetIOTimeout(d time.Duration) bool {
	if c.dl == nil {
		return false
	}
	if d <= 0 {
		c.timeout.Store(0)
		_ = c.dl.SetReadDeadline(time.Time{})
		_ = c.dl.SetWriteDeadline(time.Time{})
		return true
	}
	c.timeout.Store(int64(d))
	return true
}

func (c *Conn) armRead() error {
	if d := time.Duration(c.timeout.Load()); d > 0 && c.dl != nil {
		return c.dl.SetReadDeadline(time.Now().Add(d))
	}
	return nil
}

func (c *Conn) armWrite() error {
	if d := time.Duration(c.timeout.Load()); d > 0 && c.dl != nil {
		return c.dl.SetWriteDeadline(time.Now().Add(d))
	}
	return nil
}

// Handshake exchanges Hello messages: it sends one and requires the peer's
// first message to be one. Both sides of a channel call it; the send runs
// concurrently with the read so the exchange also completes over fully
// synchronous transports such as net.Pipe. An armed SetIOTimeout bounds the
// exchange.
func (c *Conn) Handshake() error {
	sendErr := make(chan error, 1)
	go func() {
		_, err := c.Send(Hello{})
		sendErr <- err
	}()
	msg, _, err := c.Recv()
	if err != nil {
		return fmt.Errorf("openflow: handshake recv: %w", err)
	}
	if _, ok := msg.(Hello); !ok {
		return fmt.Errorf("openflow: handshake: got %v, want hello", msg.MsgType())
	}
	if err := <-sendErr; err != nil {
		return fmt.Errorf("openflow: handshake send: %w", err)
	}
	return nil
}

// Send writes one message, allocating a fresh XID, and returns the XID used.
func (c *Conn) Send(msg Message) (uint32, error) {
	xid := c.xid.Add(1)
	return xid, c.SendXID(msg, xid)
}

// SendXID writes one message under the caller's XID (for replies, which must
// echo the request's XID), together with anything queued before it.
func (c *Conn) SendXID(msg Message, xid uint32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.queueLocked(msg, xid); err != nil {
		return err
	}
	return c.flushLocked()
}

// Queue encodes one message into the write buffer under a fresh XID, which
// it returns, without touching the transport; Flush (or any Send) delivers
// it. Queuing allocates nothing while the batch fits the buffer.
func (c *Conn) Queue(msg Message) (uint32, error) {
	xid := c.xid.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return xid, c.queueLocked(msg, xid)
}

// Flush writes every queued message to the transport in one Write, under
// one armed deadline. After an error the batch is gone and the peer may
// have received any prefix of it, possibly ending mid-frame: the channel is
// no longer usable.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) queueLocked(msg Message, xid uint32) error {
	buf, err := AppendEncode(c.wbuf, msg, xid)
	c.wbuf = buf
	return err
}

func (c *Conn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	buf := c.wbuf
	c.wbuf = c.wbuf[:0]
	if err := c.armWrite(); err != nil {
		return err
	}
	_, err := c.raw.Write(buf)
	return err
}

// Recv blocks for the next message, honoring the armed per-operation
// deadline.
func (c *Conn) Recv() (Message, Header, error) {
	if err := c.armRead(); err != nil {
		return nil, Header{}, err
	}
	return ReadMessage(c.r)
}

// RecvXID reads messages until one carrying xid arrives. Along the way it
// transparently answers the peer's Echo requests (keeping the channel's
// liveness protocol running) and discards unrelated messages, so callers can
// match request/reply pairs over a channel with interleaved traffic. A peer
// ErrorMsg carrying the awaited XID is returned with a *RemoteError.
func (c *Conn) RecvXID(xid uint32) (Message, Header, error) {
	for {
		msg, h, err := c.Recv()
		if err != nil {
			return nil, Header{}, err
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			if err := c.SendXID(Echo{Reply: true, Data: e.Data}, h.XID); err != nil {
				return nil, Header{}, err
			}
			continue
		}
		if h.XID != xid {
			continue
		}
		if e, ok := msg.(ErrorMsg); ok {
			return msg, h, &RemoteError{Code: e.Code, Data: e.Data}
		}
		return msg, h, nil
	}
}

// Request sends msg and blocks for the XID-matched reply.
func (c *Conn) Request(msg Message) (Message, Header, error) {
	xid, err := c.Send(msg)
	if err != nil {
		return nil, Header{}, err
	}
	return c.RecvXID(xid)
}

// Ping probes channel liveness with an Echo round-trip carrying data. It
// fails on any transport error, on a timeout (arm SetIOTimeout first), or
// when the peer's reply does not mirror the payload.
func (c *Conn) Ping(data []byte) error {
	msg, _, err := c.Request(Echo{Data: data})
	if err != nil {
		return fmt.Errorf("openflow: ping: %w", err)
	}
	e, ok := msg.(Echo)
	if !ok || !e.Reply || !bytes.Equal(e.Data, data) {
		return fmt.Errorf("openflow: ping: unexpected reply %v", msg.MsgType())
	}
	return nil
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }

// DialTimeout opens a control channel to addr over TCP, bounding both the
// TCP connect and the Hello handshake by d (0 means no bound). The
// returned Conn has no per-operation deadline armed; callers wanting bounded
// reads and writes call SetIOTimeout.
func DialTimeout(addr string, d time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("openflow: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	c.SetIOTimeout(d)
	if err := c.Handshake(); err != nil {
		_ = nc.Close()
		return nil, err
	}
	c.SetIOTimeout(0)
	return c, nil
}
