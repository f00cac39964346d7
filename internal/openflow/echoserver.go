package openflow

import (
	"fmt"
	"sync/atomic"
	"time"
)

// EchoServer is a minimal control-plane liveness endpoint: a Server whose
// handler answers Echo requests — nothing else. It is the probe surface a
// failure detector (internal/monitor) pings to decide whether a controller
// is alive.
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
	*Server
	alive atomic.Bool
	pings atomic.Uint64
}

// ServeEcho starts an echo endpoint on addr (e.g. "127.0.0.1:0"), initially
// alive.
func ServeEcho(addr string) (*EchoServer, error) {
	s := &EchoServer{}
	s.alive.Store(true)
	srv, err := Serve(addr, s.serve)
	if err != nil {
		return nil, fmt.Errorf("openflow: echo server: %w", err)
	}
	s.Server = srv
	return s, nil
}

// Pings returns the number of Echo requests answered so far.
func (s *EchoServer) Pings() uint64 { return s.pings.Load() }

// SetAlive toggles the endpoint. Going down closes every open channel
// immediately (in-flight probes fail, as they would against a crashed
// process); going up resumes serving on the same address.
func (s *EchoServer) SetAlive(alive bool) {
	s.alive.Store(alive)
	if !alive {
		s.CloseChannels()
	}
}

// serve answers Echo requests on one channel until it closes, the endpoint
// goes down, or nothing arrives for 30 s.
func (s *EchoServer) serve(conn *Conn) {
	conn.SetIOTimeout(30 * time.Second)
	for s.alive.Load() {
		msg, h, err := conn.Recv()
		if err != nil || !s.alive.Load() {
			return
		}
		if e, ok := msg.(Echo); ok && !e.Reply {
			s.pings.Add(1)
			if err := conn.SendXID(Echo{Reply: true, Data: e.Data}, h.XID); err != nil {
				return
			}
		}
	}
}
