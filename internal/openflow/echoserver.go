package openflow

import (
	"fmt"
	"sync"
	"time"
)

// EchoServer is a minimal control-plane liveness endpoint: it accepts
// control channels, completes the Hello handshake, and answers Echo
// requests — nothing else. It is the probe surface a failure detector
// (internal/monitor) pings to decide whether a controller is alive.
//
// The endpoint's liveness is toggleable without releasing its port:
// SetAlive(false) closes every open channel, and while it is down a new
// channel is accepted, taken through the Hello handshake and closed straight
// after it. A dial to a dead endpoint therefore succeeds; it is the first
// read on the channel that fails (EOF or a reset), which is how a probe and a
// held session see a crash. SetAlive(true) resumes service on the same
// address, and that address stability is what lets a simulated controller
// "return" and be re-detected without re-configuring the detector.
//
// A served channel that carries nothing for 30 s is closed (serve's read
// deadline). Probes never notice; an idle session held open to the endpoint,
// such as the one internal/monitor watches, does, and must take the reset
// for what it is: a reason to probe, not a failure.
type EchoServer struct {
	listener *Listener

	mu    sync.Mutex
	alive bool
	conns map[*Conn]struct{}
	pings uint64

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// ServeEcho starts an echo endpoint on addr (e.g. "127.0.0.1:0"), initially
// alive.
func ServeEcho(addr string) (*EchoServer, error) {
	l, err := Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("openflow: echo server: %w", err)
	}
	s := &EchoServer{
		listener: l,
		alive:    true,
		conns:    make(map[*Conn]struct{}),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the endpoint's listen address.
func (s *EchoServer) Addr() string { return s.listener.Addr() }

// Pings returns the number of Echo requests answered so far.
func (s *EchoServer) Pings() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pings
}

// SetAlive toggles the endpoint. Going down closes every open channel
// immediately (in-flight probes fail, as they would against a crashed
// process); going up resumes accepting on the same address.
func (s *EchoServer) SetAlive(alive bool) {
	s.mu.Lock()
	s.alive = alive
	var victims []*Conn
	if !alive {
		for c := range s.conns {
			victims = append(victims, c)
		}
	}
	s.mu.Unlock()
	for _, c := range victims {
		_ = c.Close()
	}
}

// Close stops the endpoint and waits for its channels to drain. Later calls
// return what the first did.
func (s *EchoServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.closeErr = s.listener.Close()
		s.SetAlive(false)
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *EchoServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Handshake failure or transient accept error: keep serving.
				continue
			}
		}
		s.mu.Lock()
		if !s.alive {
			// Dead: the Hello exchange is already done (Accept does it), so
			// the dialer got a channel; closing it is the refusal.
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// serve answers Echo requests on one channel until it closes, the endpoint
// goes down, or nothing arrives for 30 s.
func (s *EchoServer) serve(conn *Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	conn.SetIOTimeout(30 * time.Second)
	for {
		msg, h, err := conn.Recv()
		if err != nil {
			return
		}
		s.mu.Lock()
		alive := s.alive
		s.mu.Unlock()
		if !alive {
			return
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			s.mu.Lock()
			s.pings++
			s.mu.Unlock()
			if err := conn.SendXID(Echo{Reply: true, Data: e.Data}, h.XID); err != nil {
				return
			}
		}
	}
}
