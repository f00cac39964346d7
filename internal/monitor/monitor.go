// Package monitor is the controller failure detector. Per target it runs two
// signals side by side: a jittered heartbeat (one probe per tick against the
// control-plane liveness endpoint, internal/openflow Echo by default) and one
// watched session, an idle control channel that a crashing controller resets.
// Consecutive probe misses make a down verdict and a single successful probe
// a recovery; the watched session never decides anything, it only tells the
// loop when to probe. Failures are emitted the moment the verdict is in —
// unless another target's session was lost beside this one's and its verdict
// is still out, which is waited for, briefly and boundedly, so that
// controllers that died together are announced together; recoveries are held
// for a debounce window so a flapping controller is not handed its domain
// back.
//
// Detection semantics:
//
//   - A target starts assumed up (the steady state the daemon boots into).
//   - Every probe failure increments a consecutive-miss counter; reaching
//     Threshold misses flips the target down. A single miss — a latency
//     spike, a dropped frame — never does, which is what keeps the detector
//     quiet under jitter-only chaos.
//   - Any successful probe resets the counter and flips a down target up
//     (fail-back detection).
//   - Losing the watched session is a hint, not a verdict: the loop probes
//     now instead of at the next tick, and back to back until one probe
//     succeeds (nothing happened: counter reset, session re-armed, no event)
//     or Threshold consecutive probes missed (down). Every such probe is a
//     Config.Probe call like any other.
//   - A down transition becomes an Event at once, together with whatever else
//     is already queued, with one exception: a verdict that followed a lost
//     session, reached while another target's loop is still probing back to
//     back after losing its own, waits for that loop's outcome — for no longer
//     than its own verification took, so the wait scales with the round trip
//     and a neighbour whose probes hang costs that much, not Timeout. A lone
//     crash is never held, and no heartbeat verdict is. Failures that still
//     land in two events are the consumer's to correlate (internal/medic
//     batches queued events and discards a plan that a newer event overtook).
//   - An up transition is held for Debounce; a down for the same target inside
//     the hold cancels it and nothing is emitted (a flap).
//
// Detection bounds, from the fault to the Event:
//
//   - crash (the peer resets its sessions): Threshold × (dial + Echo round
//     trip), independent of Interval; at most twice that when another session
//     was lost beside it, and only then;
//   - silent failure (partition, hang — no reset): the Threshold-th tick after
//     the fault, at most Threshold × (Interval + Jitter + what a failing probe
//     takes, itself at most Timeout); the heartbeat alone decides it, exactly
//     as it did before sessions were watched;
//   - recovery: one tick, plus Debounce.
//
// All probe scheduling is seeded: loops start phase-staggered and tick with
// deterministic jitter drawn from per-target PRNG streams, so two monitors
// with the same seed probe on the same schedule until a session is lost.
package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pmedic/internal/openflow"
)

// The two signals a down verdict can come from, as TargetState.LastSignal and
// Event.Signal name them.
const (
	// SignalReset: the watched session was lost and the probes that followed
	// it back to back all missed.
	SignalReset = "reset"
	// SignalHeartbeat: Threshold consecutive ticks missed.
	SignalHeartbeat = "heartbeat"
)

// Target is one monitored controller endpoint.
type Target struct {
	// ID is the controller's deployment index; events carry it.
	ID int
	// Name is a human-readable label for logs and status.
	Name string
	// Addr is the liveness endpoint the probe dials, and the one the watched
	// session is held to.
	Addr string
}

// ProbeFunc checks one endpoint's liveness, bounded by timeout. Every call
// is independent of every other and of the watched session (the default
// dials, pings and closes); a nil error means alive.
type ProbeFunc func(addr string, timeout time.Duration) error

// ProbeVia builds a ProbeFunc from a control-channel dialer: each probe
// dials, runs one Echo round-trip, and closes. Substituting a chaos-wrapped
// dialer is how tests and demos put probe traffic under fault injection.
func ProbeVia(dial func(addr string, timeout time.Duration) (*openflow.Conn, error)) ProbeFunc {
	return func(addr string, timeout time.Duration) error {
		conn, err := dial(addr, timeout)
		if err != nil {
			return err
		}
		defer func() { _ = conn.Close() }()
		conn.SetIOTimeout(timeout)
		return conn.Ping([]byte("pmedicd"))
	}
}

// defaultProbe dials the endpoint over plain TCP and pings it.
var defaultProbe = ProbeVia(openflow.DialTimeout)

// Config tunes the detector. The zero value selects the defaults noted per
// field.
type Config struct {
	// Interval is the nominal gap between probes of one target (default
	// 500ms). Each target's loop starts phase-staggered within one Interval.
	// It is also the least gap between two attempts to open a target's
	// watched session.
	Interval time.Duration
	// Jitter adds a uniform [0, Jitter) seeded extra delay per tick (default
	// Interval/4, at least 1ns) so probe loops decorrelate instead of
	// thundering together.
	Jitter time.Duration
	// Timeout bounds each probe, and the dial of a watched session (default
	// Interval).
	Timeout time.Duration
	// Threshold is the number of consecutive misses that flips a target down
	// (default 3).
	Threshold int
	// Debounce is how long an up transition is held before it is emitted
	// (default 2×Interval): recoveries landing within one hold become one
	// event, and a target that goes down again inside it never surfaces as
	// recovered. Down transitions are not held for it; the only wait a down
	// verdict can see is the one for a session lost beside it (Event.Held),
	// which no setting governs.
	Debounce time.Duration
	// Seed drives the probe schedule and jitter deterministically.
	Seed int64
	// Probe replaces the liveness check (default: openflow Echo ping). It is
	// the only thing that produces a hit or a miss, on ticks and after a lost
	// session alike.
	Probe ProbeFunc
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Jitter <= 0 {
		c.Jitter = max(c.Interval/4, 1)
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Debounce <= 0 {
		c.Debounce = 2 * c.Interval
	}
	if c.Probe == nil {
		c.Probe = defaultProbe
	}
	return c
}

// Event is one liveness delta: the targets that went down and the targets
// that came back since the previous event.
type Event struct {
	// Seq numbers events monotonically from 1.
	Seq uint64 `json:"seq"`
	// Failed and Recovered carry target IDs, ascending.
	Failed    []int `json:"failed,omitempty"`
	Recovered []int `json:"recovered,omitempty"`
	// Signal names what detected the failures: SignalReset, SignalHeartbeat,
	// or "heartbeat+reset" when the event carries one of each. Empty when
	// nothing failed.
	Signal string `json:"signal,omitempty"`
	// Held is how long the event's first down verdict waited for the verdict
	// of a session lost beside it; zero for a lone failure, for heartbeat
	// verdicts and for recoveries.
	Held time.Duration `json:"held,omitempty"`
	// At is the emission time: the instant of the verdict for a failure (Held
	// later, if it was held), the end of the Debounce hold for a recovery.
	At time.Time `json:"at"`
}

// String renders the event compactly.
func (e Event) String() string {
	by := e.Signal
	if e.Held > 0 {
		by += ", held " + e.Held.Round(time.Microsecond).String()
	}
	if by != "" {
		by = " (" + by + ")"
	}
	return fmt.Sprintf("event #%d: failed=%v%s recovered=%v", e.Seq, e.Failed, by, e.Recovered)
}

// TargetState is one target's detector-side view, for status reporting.
type TargetState struct {
	ID                int    `json:"id"`
	Name              string `json:"name,omitempty"`
	Addr              string `json:"addr"`
	Up                bool   `json:"up"`
	ConsecutiveMisses int    `json:"consecutive_misses"`
	Probes            uint64 `json:"probes"`
	Misses            uint64 `json:"misses"`
	Failures          uint64 `json:"failures"`
	Recoveries        uint64 `json:"recoveries"`
	// Watched reports whether a session to the target is held right now, i.e.
	// whether a crash would be noticed before the next tick.
	Watched bool `json:"watched"`
	// SessionResets counts watched sessions lost, spurious ones (an idle
	// session reaped by the peer) included.
	SessionResets uint64 `json:"session_resets"`
	// LastSignal is the signal behind the latest down flip.
	LastSignal  string    `json:"last_signal,omitempty"`
	LastProbeAt time.Time `json:"last_probe_at"`
	LastError   string    `json:"last_error,omitempty"`
}

// transition is what a probe loop tells the coalescer: a raw per-target state
// flip, or that it began or ended probing back to back after a lost session.
// One loop's transitions arrive in the order it sent them, so the coalescer
// always knows which loops have a verdict out.
type transition struct {
	id   int
	what transitionKind
	// For a down flip: what flipped the target and, after a lost session, how
	// long the verdict took from the loss.
	signal string
	took   time.Duration
}

type transitionKind int

const (
	wentDown  transitionKind = iota
	wentUp                   // a probe succeeded on a down target
	verifying                // the watched session was lost; probing back to back
	settled                  // that probing is over, whatever it found
)

type target struct {
	Target
	state TargetState
}

// watch is the idle control channel a target's loop holds so that a crashing
// peer's reset arrives as a wake-up.
type watch struct {
	conn *openflow.Conn
	lost chan struct{} // closed once the channel has ended
}

func (w *watch) close() {
	if w != nil {
		_ = w.conn.Close()
	}
}

// lostC is w.lost, or for no session nil, which a select never picks.
func (w *watch) lostC() <-chan struct{} {
	if w == nil {
		return nil
	}
	return w.lost
}

// Monitor drives the probe loops and the coalescer.
type Monitor struct {
	cfg     Config
	targets []*target

	mu sync.Mutex // guards every target's state

	transitions chan transition
	events      chan Event

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New builds a detector over the targets. Call Start to begin probing.
func New(targets []Target, cfg Config) *Monitor {
	m := &Monitor{
		cfg:         cfg.withDefaults(),
		transitions: make(chan transition, 4*len(targets)+4),
		events:      make(chan Event, 16),
		done:        make(chan struct{}),
	}
	for _, t := range targets {
		tt := &target{Target: t}
		tt.state = TargetState{ID: t.ID, Name: t.Name, Addr: t.Addr, Up: true}
		m.targets = append(m.targets, tt)
	}
	return m
}

// Events is the event stream. It is closed by Stop.
func (m *Monitor) Events() <-chan Event { return m.events }

// Start launches the probe loops and the coalescer.
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		m.wg.Add(1)
		go m.coalesce()
		for i, t := range m.targets {
			m.wg.Add(1)
			go m.probeLoop(t, m.cfg.Seed^(0x5DEECE66D*int64(i+1)))
		}
	})
}

// Stop halts probing, waits for in-flight probes, closes the watched sessions
// and closes Events. Nothing the monitor started is running when it returns.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		close(m.events)
	})
}

// MarkDown seeds targets as already down before Start — the detector-state
// handoff on daemon failover. A successor daemon that restored a failure
// set from the shared store marks those targets down so the fresh detector
// does not re-announce failures the previous leader already reconciled
// (which would burn an epoch and a redundant push), while a probe success
// on a marked target still emits the recovery event. Calling MarkDown
// after Start has no effect on already-running probe loops' past output.
func (m *Monitor) MarkDown(ids ...int) {
	down := make(map[int]bool, len(ids))
	for _, id := range ids {
		down[id] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.targets {
		if down[t.ID] {
			t.state.Up = false
			t.state.ConsecutiveMisses = m.cfg.Threshold
		}
	}
}

// State snapshots every target's detector-side view, in target order.
func (m *Monitor) State() []TargetState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TargetState, len(m.targets))
	for i, t := range m.targets {
		out[i] = t.state
	}
	return out
}

// probeLoop drives one target: phase-staggered start, jittered ticks, one
// probe per tick — and, when the watched session is lost, probes back to back
// until the verdict is in.
func (m *Monitor) probeLoop(t *target, seed int64) {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	timer := time.NewTimer(time.Duration(rng.Int63n(int64(m.cfg.Interval))))
	defer timer.Stop()
	var (
		w       *watch    // the session held while the target answers, or nil
		armedAt time.Time // the latest attempt to open one
		lostAt  time.Time // when the session whose loss is being verified ended
	)
	defer func() { w.close() }()
	for {
		signal := SignalHeartbeat
		select {
		case <-m.done:
			return
		case <-timer.C:
		case <-w.lostC():
			// A hint, not a verdict: the peer may have crashed, restarted, or
			// only reaped an idle channel. Probe now to find out which.
			w.close()
			w = nil
			m.sessionLost(t)
			signal = SignalReset
			lostAt = time.Now()
			m.tell(transition{id: t.ID, what: verifying})
		}
		for {
			err := m.cfg.Probe(t.Addr, m.cfg.Timeout)
			up := m.record(t, err, signal, lostAt)
			if err == nil {
				// The session is best-effort: failing to open it is not a miss.
				// One attempt per Interval keeps an endpoint that accepts and
				// then closes (a dead EchoServer does) from spinning the loop,
				// and after a success the target is up, so a down target is
				// never watched.
				if w == nil && time.Since(armedAt) >= m.cfg.Interval {
					armedAt = time.Now()
					w = m.arm(t)
				}
				break
			}
			if signal != SignalReset || !up || m.stopped() {
				break
			}
		}
		if signal == SignalReset {
			m.tell(transition{id: t.ID, what: settled})
		}
		// go.mod selects the pre-1.23 timer channel: a tick that fired while
		// the loop was busy with a lost session is still queued, and Reset
		// alone would deliver it as an extra probe.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(m.cfg.Interval + time.Duration(rng.Int63n(int64(m.cfg.Jitter))))
	}
}

func (m *Monitor) stopped() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// arm opens the target's watched session and starts its reader, which ends —
// closing lost — when the channel does: reset or closed by the peer, or closed
// by the loop. It answers the peer's Echo requests and drops anything else.
func (m *Monitor) arm(t *target) *watch {
	conn, err := openflow.DialTimeout(t.Addr, m.cfg.Timeout)
	if err != nil {
		return nil
	}
	w := &watch{conn: conn, lost: make(chan struct{})}
	m.wg.Add(1) // the loop calling arm holds a count, so Stop's Wait cannot have returned
	go func() {
		defer m.wg.Done()
		defer close(w.lost)
		for {
			// XID 0 is never sent on this channel, so nothing matches and
			// only an error returns.
			if _, _, err := conn.RecvXID(0); err != nil {
				return
			}
		}
	}()
	m.mu.Lock()
	t.state.Watched = true
	m.mu.Unlock()
	return w
}

func (m *Monitor) sessionLost(t *target) {
	m.mu.Lock()
	t.state.Watched = false
	t.state.SessionResets++
	m.mu.Unlock()
}

// tell queues one transition for the coalescer.
func (m *Monitor) tell(tr transition) {
	select {
	case m.transitions <- tr:
	case <-m.done:
	}
}

// record folds one probe result into the target's state, queues a raw
// transition when the suspicion threshold is crossed or the target returns,
// and reports whether the target is up afterwards. signal is what prompted
// the probe; after a lost session, lostAt is when it was lost.
func (m *Monitor) record(t *target, err error, signal string, lostAt time.Time) bool {
	m.mu.Lock()
	s := &t.state
	s.Probes++
	s.LastProbeAt = time.Now()
	var tr *transition
	if err != nil {
		s.Misses++
		s.ConsecutiveMisses++
		s.LastError = err.Error()
		if s.Up && s.ConsecutiveMisses >= m.cfg.Threshold {
			s.Up = false
			s.Failures++
			s.LastSignal = signal
			tr = &transition{id: t.ID, what: wentDown, signal: signal}
			if signal == SignalReset {
				tr.took = s.LastProbeAt.Sub(lostAt)
			}
		}
	} else {
		s.ConsecutiveMisses = 0
		s.LastError = ""
		if !s.Up {
			s.Up = true
			s.Recoveries++
			tr = &transition{id: t.ID, what: wentUp}
		}
	}
	up := s.Up
	m.mu.Unlock()
	if tr != nil {
		m.tell(*tr)
	}
	return up
}

// coalesce turns raw transitions into events. A down transition is emitted at
// once, with every other transition already queued folded in — except that a
// verdict which followed a lost session is held while other loops are still
// verifying the loss of theirs, until the last of them has settled or the
// verdict has waited as long as it took to reach, whichever is first. An up
// transition waits out one Debounce hold, which starts at the first pending
// up, and a down for the same target inside the hold cancels it. reported
// tracks the state consumers last saw.
func (m *Monitor) coalesce() {
	defer m.wg.Done()
	// reported starts from each target's current view, not a blanket "up":
	// targets seeded down by MarkDown (failover handoff) must not emit a
	// failure event for a failure the consumer already knows about.
	reported := make(map[int]bool, len(m.targets))
	m.mu.Lock()
	for _, t := range m.targets {
		reported[t.ID] = t.state.Up
	}
	m.mu.Unlock()
	var (
		pendingUp = make(map[int]bool)
		hold      *time.Timer
		holdC     <-chan time.Time
		seq       uint64

		// unsettled are the targets whose loops are probing back to back
		// after a lost session. ev, heartbeat and reset collect the event
		// being built; they outlive an iteration only while its failures are
		// held, from heldAt until unsettled empties or wait fires.
		unsettled        = make(map[int]bool)
		ev               Event
		heartbeat, reset bool
		heldAt           time.Time
		wait             *time.Timer
		waitC            <-chan time.Time
	)
	defer func() {
		if hold != nil {
			hold.Stop()
		}
		if wait != nil {
			wait.Stop()
		}
	}()
	for {
		// release: emit what has been collected whoever is still unsettled.
		// took: the verification time of the first lost-session verdict that
		// came in this round.
		var (
			release bool
			took    time.Duration
		)
		select {
		case <-m.done:
			return
		case tr := <-m.transitions:
			for more := true; more; {
				switch tr.what {
				case verifying:
					unsettled[tr.id] = true
				case settled:
					delete(unsettled, tr.id)
				case wentUp:
					pendingUp[tr.id] = true
					if holdC == nil {
						hold = time.NewTimer(m.cfg.Debounce)
						holdC = hold.C
					}
				case wentDown:
					delete(unsettled, tr.id)
					if pendingUp[tr.id] {
						// Flapped back inside the hold: the consumer never
						// saw it up, so there is nothing to tell.
						delete(pendingUp, tr.id)
						if len(pendingUp) == 0 {
							hold.Stop()
							holdC = nil
						}
					}
					if reported[tr.id] {
						reported[tr.id] = false
						ev.Failed = append(ev.Failed, tr.id)
						if tr.signal == SignalReset {
							reset = true
							if took == 0 {
								took = tr.took
							}
						} else {
							heartbeat = true
							release = true
						}
					}
				}
				select {
				case tr = <-m.transitions:
				default:
					more = false
				}
			}
		case <-holdC:
			holdC = nil
			for id := range pendingUp {
				if !reported[id] {
					reported[id] = true
					ev.Recovered = append(ev.Recovered, id)
				}
			}
			clear(pendingUp)
			release = true
		case <-waitC:
			release = true
		}
		if len(ev.Failed) == 0 && len(ev.Recovered) == 0 {
			continue
		}
		if !release && len(unsettled) > 0 {
			if heldAt.IsZero() && took > 0 {
				heldAt = time.Now()
				wait = time.NewTimer(took)
				waitC = wait.C
			}
			if !heldAt.IsZero() {
				continue
			}
		}
		sort.Ints(ev.Failed)
		sort.Ints(ev.Recovered)
		switch {
		case heartbeat && reset:
			ev.Signal = SignalHeartbeat + "+" + SignalReset
		case reset:
			ev.Signal = SignalReset
		case heartbeat:
			ev.Signal = SignalHeartbeat
		}
		seq++
		ev.Seq = seq
		ev.At = time.Now()
		if !heldAt.IsZero() {
			ev.Held = ev.At.Sub(heldAt)
			wait.Stop()
			waitC, heldAt = nil, time.Time{}
		}
		select {
		case m.events <- ev:
		case <-m.done:
			return
		}
		ev, heartbeat, reset = Event{}, false, false
	}
}
