package sdnsim

import (
	"slices"
	"sync"

	"pmedic/internal/flow"
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
// The set also keeps the record of each switch's flow table (table), so the
// drivers push a switch only the flow-mods that change it, and push in full
// a switch it does not vouch for. A new set vouches for none; an acknowledged
// full fail-back (not a recovery, which leaves p̄ < 2 entries unknown) makes
// it vouch, at the boot nonce the reply carried; a push left Dirty, or a
// reply with another nonce (the switch restarted), ends the vouch.
//
// A nil *Sessions is the set whose every acquire misses and that vouches for
// nothing: the drivers dial per use, close after it, and push in full. All
// methods are safe for concurrent use.
type Sessions struct {
	mu   sync.Mutex
	idle map[string]*openflow.Conn
	// inUse counts, per address, the attempts and warm-up dials that hold or
	// are opening its session; Warm leaves such an address alone.
	inUse map[string]int
	// tables is the record of the switches the set vouches for.
	tables map[topo.NodeID]table
	closed bool
	stats  SessionStats
}

// table is the record of one vouched-for switch's flow table: the boot nonce
// its agent answered with, and, ascending, the flows whose steady-state
// entry (the one New installs and addMod asserts) acknowledged pushes have
// deleted. Every other flow through the switch holds its steady-state entry.
type table struct {
	nonce   uint64
	deleted []flow.ID
}

// holds reports whether the table holds id's steady-state entry.
func (t *table) holds(id flow.ID) bool {
	_, gone := slices.BinarySearch(t.deleted, id)
	return !gone
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
	return &Sessions{idle: make(map[string]*openflow.Conn), inUse: make(map[string]int), tables: make(map[topo.NodeID]table)}
}

// vouched returns the record of sw's table; ok is false when the set does
// not vouch for it.
func (s *Sessions) vouched(sw topo.NodeID) (t table, ok bool) {
	if s == nil {
		return table{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok = s.tables[sw]
	return t, ok
}

// forget stops vouching for sw's table.
func (s *Sessions) forget(sw topo.NodeID) {
	if s != nil {
		s.mu.Lock()
		delete(s.tables, sw)
		s.mu.Unlock()
	}
}

// note folds one switch's push into the record (the vouching rule above):
// an acknowledged difference is applied to it — a delete records its flow's
// entry deleted, an add records it back — and an acknowledged full fail-back
// vouches for the switch with nothing deleted; a push that failed Dirty ends
// the vouch. A record is replaced, never changed in place, so a table that
// vouched returned stays as it was.
func (s *Sessions) note(sp switchPush, res attemptResult, dirty bool, err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[sp.sw]
	switch {
	case err != nil:
		if dirty {
			delete(s.tables, sp.sw)
		}
	case !res.full:
		if ok && t.nonce == res.nonce {
			s.tables[sp.sw] = table{nonce: t.nonce, deleted: applyDiff(t.deleted, sp.mods)}
		}
	case sp.vouches:
		s.tables[sp.sw] = table{nonce: res.nonce}
	}
}

// applyDiff returns the deleted set after mods, ascending.
func applyDiff(deleted []flow.ID, mods []openflow.FlowMod) []flow.ID {
	next := slices.Clone(deleted)
	for _, m := range mods {
		switch i, found := slices.BinarySearch(next, flow.ID(m.Match.FlowID)); {
		case m.Command == openflow.FlowDelete && !found:
			next = slices.Insert(next, i, flow.ID(m.Match.FlowID))
		case m.Command == openflow.FlowAdd && found:
			next = slices.Delete(next, i, i+1)
		}
	}
	return next
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
