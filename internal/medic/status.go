package medic

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// Kind classifies a structured log entry.
type Kind string

// Log entry kinds.
const (
	KindDetect    Kind = "detect"    // a detector event was applied
	KindPlan      Kind = "plan"      // planning detail (e.g. residual re-plan)
	KindPush      Kind = "push"      // a recovery plan was pushed
	KindConverged Kind = "converged" // the failure set has a pushed, adopted plan
	KindRestore   Kind = "restore"   // a returned controller's domain was restored
	KindFailback  Kind = "failback"  // every controller is back; ideal state
	KindStale     Kind = "stale"     // a computed plan was discarded unpushed
	KindResume    Kind = "resume"    // a restarted daemon replayed snapshot+WAL
	KindFenced    Kind = "fenced"    // a push was refused by generation-ID fencing
	KindError     Kind = "error"
)

// LogEntry is one structured event-log record.
type LogEntry struct {
	Seq  uint64    `json:"seq"`
	At   time.Time `json:"at"`
	Kind Kind      `json:"kind"`
	Msg  string    `json:"msg"`
}

// logSize bounds the structured event log, in a leader's ring and in the
// Status a follower renders from the same store (ReadStatus).
const logSize = 256

// eventLog is a bounded ring of LogEntries. The sequence counter is part
// of the daemon's durable state: restoreRing carries it across restarts so
// entries are never silently renumbered, and onAppend (when set) persists
// each new entry to the WAL.
type eventLog struct {
	mu      sync.Mutex
	seq     uint64
	entries []LogEntry
	next    int
	full    bool
	// onAppend, when set, receives every appended entry after the ring is
	// updated (outside the ring's lock). The medic wires it to the WAL.
	onAppend func(LogEntry)
}

func newEventLog(size int) *eventLog {
	return &eventLog{entries: make([]LogEntry, size)}
}

// addf appends one entry and returns its sequence number.
func (l *eventLog) addf(kind Kind, format string, args ...interface{}) uint64 {
	l.mu.Lock()
	l.seq++
	e := LogEntry{Seq: l.seq, At: time.Now(), Kind: kind, Msg: fmt.Sprintf(format, args...)}
	l.entries[l.next] = e
	l.next = (l.next + 1) % len(l.entries)
	if l.next == 0 {
		l.full = true
	}
	hook := l.onAppend
	l.mu.Unlock()
	if hook != nil {
		hook(e)
	}
	return e.Seq
}

// restoreRing reloads the ring from persisted state: the retained entries
// (oldest first, trimmed to the ring's capacity) and the monotonic
// sequence counter, so the first post-restart entry continues the
// numbering instead of starting over at 1.
func (l *eventLog) restoreRing(seq uint64, entries []LogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.entries)
	if len(entries) > size {
		entries = entries[len(entries)-size:]
	}
	for i := range l.entries {
		l.entries[i] = LogEntry{}
	}
	copy(l.entries, entries)
	l.next = len(entries) % size
	l.full = len(entries) == size
	l.seq = seq
	// A durable seq can never run behind the restored entries.
	if n := len(entries); n > 0 && entries[n-1].Seq > l.seq {
		l.seq = entries[n-1].Seq
	}
}

// snapshot returns the retained entries, oldest first.
func (l *eventLog) snapshot() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	if l.full {
		out = append(out, l.entries[l.next:]...)
	}
	out = append(out, l.entries[:l.next]...)
	return out
}

// MappingEntry is one switch's current assignment in the achieved plan.
type MappingEntry struct {
	Switch topo.NodeID `json:"switch"`
	// Controller is the deployment controller index, -1 for legacy mode.
	Controller int `json:"controller"`
}

// FlowProg is one offline flow's achieved programmability.
type FlowProg struct {
	Flow flow.ID `json:"flow"`
	Prog int     `json:"prog"`
}

// Status is the daemon's reconciled state, JSON-ready for the HTTP
// endpoint.
type Status struct {
	Now   time.Time `json:"now"`
	Epoch uint64    `json:"epoch"`
	// EpochReserved is the highest epoch the store durably holds for the
	// leader: it signs nothing above it, and a successor resumes above it.
	// Absent without a store.
	EpochReserved uint64 `json:"epoch_reserved,omitempty"`
	// Replica, Role, and Term identify this daemon in an HA deployment
	// (SetRole); empty when running standalone.
	Replica string `json:"replica,omitempty"`
	Role    string `json:"role,omitempty"`
	Term    uint64 `json:"term,omitempty"`
	// Failed is the controller set currently believed down.
	Failed []int `json:"failed_controllers"`
	// Ideal reports the steady state: nothing failed, ideal mapping in
	// force. Converged reports that the current failure set (possibly
	// empty) has a pushed plan.
	Ideal     bool   `json:"ideal"`
	Converged bool   `json:"converged"`
	Case      string `json:"case,omitempty"`
	// Unreachable lists switches demoted for agent unreachability this
	// episode, ascending.
	Unreachable []topo.NodeID `json:"unreachable_switches,omitempty"`

	// Plan metrics of the achieved (pushed) solution.
	MinProg        int `json:"min_prog"`
	TotalProg      int `json:"total_prog"`
	RecoveredFlows int `json:"recovered_flows"`
	OfflineFlows   int `json:"offline_flows"`
	PushRounds     int `json:"push_rounds,omitempty"`
	FlowModsAcked  int `json:"flow_mods_acked,omitempty"`
	Restores       int `json:"restores"`

	Mapping  []MappingEntry `json:"mapping,omitempty"`
	FlowProg []FlowProg     `json:"flow_prog,omitempty"`

	// NetworkMapping is the simulator's live switch→controller ownership
	// (present when the medic is wired to a Network).
	NetworkMapping []int `json:"network_mapping,omitempty"`

	// PersistFailures counts store writes that failed since startup;
	// nonzero means durability is degraded.
	PersistFailures uint64 `json:"persist_failures,omitempty"`

	// Sessions reports the standby control channels: how many switches have
	// one open, and how often a wire attempt reused one, dialled, or found
	// one dead. Zero on a follower, which holds none.
	Sessions sdnsim.SessionStats `json:"standby_sessions"`

	Events   []LogEntry            `json:"events"`
	Detector []monitor.TargetState `json:"detector,omitempty"`
}

// state is everything the daemon knows: what the reconcile loop owns and works
// on, what it publishes for every reader, what a pass journals as its outcome
// record, and (with the log ring beside it, durableState) what a checkpoint
// holds and a replay returns. One value, so that what an observer or a
// successor finds is one point in the daemon's history and never half of a
// transition.
type state struct {
	// Epoch counts applied event batches; 0 = nothing ever detected.
	Epoch uint64 `json:"epoch"`
	// Failed is the controller set currently believed down, ascending, never
	// nil.
	Failed []int `json:"failed"`
	// PendingRecovered are controllers whose return has been detected but
	// whose domains have not been restored yet.
	PendingRecovered []int `json:"pending_recovered,omitempty"`
	// Unreachable accumulates, ascending, the switches demoted by pushes in
	// this failure episode; cleared when the failure set empties.
	Unreachable []topo.NodeID `json:"unreachable,omitempty"`
	Snap        snapshot      `json:"snap"`
	// Reserved is the highest epoch the store durably holds for this medic:
	// the only epochs it signs (ensureReserved), and what a successor resumes
	// above. Always 0 without a store, and absent from state written before
	// epochs were reserved, which signed nothing above Epoch.
	Reserved uint64 `json:"reserved,omitempty"`
	// LogSeq is the last event-log entry stamped when the state was as it
	// reads here: the entries up to it, and no others, belong to the state.
	LogSeq uint64 `json:"log_seq"`
}

// snapshot is the outcome of the last reconcile pass, as Status reports it.
type snapshot struct {
	Converged bool   `json:"converged"`
	Ideal     bool   `json:"ideal"`
	Label     string `json:"label,omitempty"`
	Restores  int    `json:"restores"`

	MinProg        int `json:"min_prog"`
	TotalProg      int `json:"total_prog"`
	RecoveredFlows int `json:"recovered_flows"`
	OfflineFlows   int `json:"offline_flows"`
	PushRounds     int `json:"push_rounds,omitempty"`
	FlowModsAcked  int `json:"flow_mods_acked,omitempty"`

	Mapping  []MappingEntry `json:"mapping,omitempty"`
	FlowProg []FlowProg     `json:"flow_prog,omitempty"`

	UpdatedAt time.Time `json:"updated_at"`
}

// idleState is the ideal steady state of a daemon that has seen nothing.
func idleState() state {
	return state{Failed: []int{}, Snap: snapshot{Converged: true, Ideal: true, UpdatedAt: time.Now()}}
}

// detect folds one detector event into the failure set, live (apply) or
// replayed from its record: a controller that returns from the set awaits its
// fail-back, one that was never in it is ignored.
func (s *state) detect(failed, recovered []int) {
	for _, j := range failed {
		s.Failed = setAdd(s.Failed, j)
	}
	for _, j := range recovered {
		var wasDown bool
		if s.Failed, wasDown = setDel(s.Failed, j); wasDown {
			s.PendingRecovered = append(s.PendingRecovered, j)
		}
	}
}

// setAdd and setDel keep a small ascending slice as a set, the form the
// failure set and the unreachable set have in plans, records and statuses.
// setDel reports whether the member was there.
func setAdd[T cmp.Ordered](set []T, v T) []T {
	i, found := slices.BinarySearch(set, v)
	if found {
		return set
	}
	return slices.Insert(set, i, v)
}

func setDel[T cmp.Ordered](set []T, v T) ([]T, bool) {
	i, found := slices.BinarySearch(set, v)
	if !found {
		return set, false
	}
	return slices.Delete(set, i, i+1), true
}

// publish makes the state as the loop holds it now the one everybody else
// sees, in one store. A pass publishes twice: apply, once the detect entry is
// stamped (epoch N shown means N's detect entry is shown), and reconcile's
// tail, once the entry that ends the pass is (converged, ideal, mapping, case,
// metrics and unreachable set are all that pass's, and its converged or
// failback entry is shown). Between the two nothing the pass does is visible.
// Outside a pass only the reservation moves, and commit publishes that. The
// copy shares the snapshot's mapping and flow tables with the loop, which
// replaces those and never writes into them; the sets it edits in place are
// cloned.
func (m *Medic) publish() {
	s := m.cur
	s.Failed = slices.Clone(s.Failed)
	s.PendingRecovered = slices.Clone(s.PendingRecovered)
	s.Unreachable = slices.Clone(s.Unreachable)
	m.pub.Store(&s)
}

// status renders a state and, of the log it is handed, the entries that belong
// to it (the newest logSize of them) — the one way a Status comes about,
// whether the state is the one a live daemon published or the one a follower
// replayed from the store. Entries stamped since the state was published are
// left out: they are the first half of a transition whose second half the
// state does not show yet.
func (s *state) status(events []LogEntry) Status {
	for len(events) > 0 && events[len(events)-1].Seq > s.LogSeq {
		events = events[:len(events)-1]
	}
	if len(events) > logSize {
		events = events[len(events)-logSize:]
	}
	return Status{
		Now:            time.Now(),
		Epoch:          s.Epoch,
		EpochReserved:  s.Reserved,
		Failed:         s.Failed,
		Unreachable:    s.Unreachable,
		Ideal:          s.Snap.Ideal,
		Converged:      s.Snap.Converged,
		Case:           s.Snap.Label,
		Restores:       s.Snap.Restores,
		MinProg:        s.Snap.MinProg,
		TotalProg:      s.Snap.TotalProg,
		RecoveredFlows: s.Snap.RecoveredFlows,
		OfflineFlows:   s.Snap.OfflineFlows,
		PushRounds:     s.Snap.PushRounds,
		FlowModsAcked:  s.Snap.FlowModsAcked,
		Mapping:        s.Snap.Mapping,
		FlowProg:       s.Snap.FlowProg,
		Events:         events,
	}
}

// Status is the published state plus what only a live daemon has: identity,
// standby sessions, the network's ownership, the count of failed store
// writes. The state is read before the ring, so the ring holds every entry the
// state was published after. Detector is left empty; the daemon's status
// source fills it from the monitor.
func (m *Medic) Status() Status {
	s := m.pub.Load()
	st := s.status(m.log.snapshot())
	st.Replica = m.cfg.ReplicaID
	if role := m.role.Load(); role != nil {
		st.Role, st.Term = role.name, role.term
	}
	st.PersistFailures = m.persistFailures.Load()
	st.Sessions = m.sessions.Stats()
	if m.cfg.Net != nil {
		st.NetworkMapping = m.cfg.Net.MappingSnapshot()
	}
	return st
}

// Handler serves the daemon's HTTP surface over a status source — a leader's
// Medic.Status with the detector's view added, a follower's ReadStatus of the
// shared directory — and a metrics registry (a follower's is an empty one):
//
//	GET /status  — the source's Status as JSON, or 500 with its error
//	GET /metrics — the registry in Prometheus text format
//	GET /healthz — liveness of the daemon process itself
func Handler(status func() (Status, error), metrics *Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := status()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = metrics.WriteTo(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprintln(w, "ok")
	})
	return mux
}
