package sdnsim

import (
	"sync"

	"pmedic/internal/openflow"
	"pmedic/internal/par"
	"pmedic/internal/topo"
)

// Sessions is a set of standby control channels: at most one idle
// *openflow.Conn per switch address, kept open between pushes. It is OpenFlow
// 1.3's multi-controller mode seen from the backup: a controller that may
// have to adopt a switch already holds a session to it, so a recovery is one
// flush and one round trip on that session instead of a dial and a Hello
// handshake first.
//
// The wire drivers take a switch's session for one attempt (acquire) and hand
// it back only after an attempt the switch fully acknowledged (release); any
// error closes it. An idle session has no goroutine and no read pending — a
// reply is read by the attempt that awaits it, after its flush — so it costs
// one descriptor, and a session that died while idle is found by the attempt
// that next uses it (pushSwitch says what that attempt does then). Every
// attempt opens with its own role claim, so the switch-side fence judges each
// use of a session afresh.
//
// A nil *Sessions is the set whose every acquire misses: the drivers dial per
// use and close after it. All methods are safe for concurrent use.
type Sessions struct {
	mu   sync.Mutex
	idle map[string]*openflow.Conn
	// inUse counts, per address, the attempts and warm-up dials that hold or
	// are opening its session; Warm leaves such an address alone.
	inUse  map[string]int
	closed bool
	stats  SessionStats
}

// SessionStats counts what a Sessions set did: the answer to "did this
// recovery dial?".
type SessionStats struct {
	// Idle is the number of sessions standing by right now.
	Idle int `json:"idle"`
	// Reused counts attempts that ran on a standby session; Dialled counts
	// channels dialled (warm-up, cold start, a session lost or in use);
	// StaleRedialled counts reused sessions found dead on use.
	Reused         uint64 `json:"reused"`
	Dialled        uint64 `json:"dialled"`
	StaleRedialled uint64 `json:"stale_redialled"`
}

// NewSessions returns an empty set.
func NewSessions() *Sessions {
	return &Sessions{idle: make(map[string]*openflow.Conn), inUse: make(map[string]int)}
}

// Stats returns the set's counters.
func (s *Sessions) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Idle = len(s.idle)
	return st
}

// acquire returns addr's standby session, or dials one with the driver's own
// DialFunc when none is idle. The caller owns the channel until release.
func (s *Sessions) acquire(addr string, opts PushOptions) (conn *openflow.Conn, reused bool, err error) {
	if s != nil {
		s.mu.Lock()
		if conn = s.idle[addr]; conn != nil {
			delete(s.idle, addr)
			s.stats.Reused++
		}
		s.inUse[addr]++
		s.mu.Unlock()
		if conn != nil {
			return conn, true, nil
		}
	}
	conn, err = s.open(addr, opts)
	return conn, false, err
}

// open dials a session to addr, which the caller has marked in use. It is
// the one place the wire drivers dial.
func (s *Sessions) open(addr string, opts PushOptions) (*openflow.Conn, error) {
	if s != nil {
		s.mu.Lock()
		s.stats.Dialled++
		s.mu.Unlock()
	}
	conn, err := opts.Dial(addr, opts.DialTimeout)
	if err != nil {
		s.release(addr, nil, false, false)
		return nil, err
	}
	return conn, nil
}

// release ends one hold on addr's session. keep hands the channel back to
// stand by, its deadline cleared; it is closed instead when keep is false,
// the set is closed or nil, or another session to addr is already idle.
// stale records that the channel was a standby found dead on use.
func (s *Sessions) release(addr string, conn *openflow.Conn, keep, stale bool) {
	if s == nil {
		keep = false
	} else {
		if keep {
			conn.SetIOTimeout(0)
		}
		s.mu.Lock()
		if s.inUse[addr]--; s.inUse[addr] <= 0 {
			delete(s.inUse, addr)
		}
		if stale {
			s.stats.StaleRedialled++
		}
		if keep = keep && !s.closed && s.idle[addr] == nil; keep {
			s.idle[addr] = conn
		}
		s.mu.Unlock()
	}
	if conn != nil && !keep {
		_ = conn.Close()
	}
}

// Warm opens a session to every address that has none, idle or in use, at
// most pushConcurrency dials at a time, and returns once each has been tried:
// a dial that fails is left to the next call, and to the push that finds the
// address cold and dials it as it always did. Nothing waits for Warm — it
// only decides whether a later acquire hits — so callers run it off the
// recovery path. After Close it opens nothing and keeps nothing.
func (s *Sessions) Warm(addrs map[topo.NodeID]string, opts PushOptions) {
	opts = opts.withDefaults()
	var cold []string
	s.mu.Lock()
	if !s.closed {
		for _, addr := range addrs {
			if s.idle[addr] == nil && s.inUse[addr] == 0 {
				s.inUse[addr]++
				cold = append(cold, addr)
			}
		}
	}
	s.mu.Unlock()
	par.For(len(cold), pushConcurrency, func(i int) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			s.release(cold[i], nil, false, false)
			return
		}
		if conn, err := s.open(cold[i], opts); err == nil {
			s.release(cold[i], conn, true, false)
		}
	})
}

// Close closes every idle session and makes the set refuse new ones: a
// session released, or a Warm dial completed, after Close is closed rather
// than kept. Sessions held by attempts in flight are closed by their release.
func (s *Sessions) Close() {
	s.mu.Lock()
	idle := s.idle
	s.idle, s.closed = nil, true
	s.mu.Unlock()
	for _, conn := range idle {
		_ = conn.Close()
	}
}
