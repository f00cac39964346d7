package openflow

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// DefaultHandshakeTimeout bounds the Hello exchange of every channel a
// Server accepts, so a client that connects and says nothing is dropped.
const DefaultHandshakeTimeout = 10 * time.Second

// handshakeTimeout is the bound Server applies; only tests lower it.
var handshakeTimeout = DefaultHandshakeTimeout

// Server serves control channels on a TCP address. Each accepted connection
// runs on its own goroutine: it is registered, taken through the Hello
// exchange (bounded by DefaultHandshakeTimeout) and handed to the handler,
// and closed when the handler returns. A peer that stalls the handshake
// therefore holds up its own channel only, and because the channel is
// registered from accept on, CloseChannels and Close end it too.
type Server struct {
	l      net.Listener
	handle func(*Conn)

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool

	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") that calls handle with
// every channel whose handshake completes. The handler owns the channel
// until it returns; the server closes it then.
func Serve(addr string, handle func(*Conn)) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("openflow: listen %s: %w", addr, err)
	}
	s := &Server{l: l, handle: handle, conns: make(map[*Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.l.Addr().String() }

// Channels returns the number of channels open right now, from accept to
// close, the ones still handshaking included.
func (s *Server) Channels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// CloseChannels closes every open channel, the ones still handshaking
// included; the server goes on accepting.
func (s *Server) CloseChannels() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

// Close stops accepting, closes every open channel and waits for their
// handlers to return. Later calls return what the first did.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.closeErr = s.l.Close()
		s.CloseChannels()
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.l.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		c := NewConn(nc)
		// Close marks the server closed before it sweeps conns under mu, so
		// a channel accepted around a Close is either swept there or
		// refused here.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

func (s *Server) serve(c *Conn) {
	defer s.wg.Done()
	defer func() {
		_ = c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	c.SetIOTimeout(handshakeTimeout)
	if c.Handshake() != nil {
		return
	}
	c.SetIOTimeout(0)
	s.handle(c)
}
