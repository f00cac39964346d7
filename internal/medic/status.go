package medic

import (
	"encoding/json"
	"fmt"
	"net/http"
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

func (l *eventLog) addf(kind Kind, format string, args ...interface{}) {
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

// state snapshots the ring for a checkpoint: the sequence counter and the
// retained entries, oldest first.
func (l *eventLog) state() (uint64, []LogEntry) {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	return seq, l.snapshot()
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

// newStatus renders the durable core of a Status — what a live daemon holds
// in memory and a follower replays from the store (ReadStatus): the epoch,
// the failure set, the unreachable switches, and the last reconciled snapshot.
func newStatus(epoch uint64, failed []int, unreachable []topo.NodeID, snap snapshot) Status {
	return Status{
		Now:            time.Now(),
		Epoch:          epoch,
		Failed:         failed,
		Unreachable:    unreachable,
		Ideal:          snap.Ideal,
		Converged:      snap.Converged,
		Case:           snap.Label,
		Restores:       snap.Restores,
		MinProg:        snap.MinProg,
		TotalProg:      snap.TotalProg,
		RecoveredFlows: snap.RecoveredFlows,
		OfflineFlows:   snap.OfflineFlows,
		PushRounds:     snap.PushRounds,
		FlowModsAcked:  snap.FlowModsAcked,
		Mapping:        snap.Mapping,
		FlowProg:       snap.FlowProg,
	}
}

// Status snapshots the medic's reconciled state. Detector is left empty;
// Handler fills it from the monitor.
func (m *Medic) Status() Status {
	m.mu.Lock()
	st := newStatus(m.epoch, sortedKeys(m.failed), sortedKeys(m.unreachable), m.snap)
	st.Replica, st.Role, st.Term = m.cfg.ReplicaID, m.role, m.term
	st.PersistFailures = m.persistFailures
	m.mu.Unlock()
	st.EpochReserved = m.reserved.Load()
	st.Sessions = m.sessions.Stats()
	if m.cfg.Net != nil {
		st.NetworkMapping = m.cfg.Net.MappingSnapshot()
	}
	st.Events = m.log.snapshot()
	return st
}

// Handler serves the daemon's HTTP surface:
//
//	GET /status  — the full Status JSON (detector state included when a
//	               monitor is attached)
//	GET /metrics — the daemon's metrics in Prometheus text format
//	GET /healthz — liveness of the daemon process itself
//
// mon may be nil.
func Handler(m *Medic, mon *monitor.Monitor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := m.Status()
		if mon != nil {
			st.Detector = mon.State()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = m.metrics.WriteTo(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprintln(w, "ok")
	})
	return mux
}
