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
	KindFailback  Kind = "failback"  // every controller is back: ideal, or which switches are not
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

// logSize bounds the structured event log, a leader's and a follower's.
const logSize = 256

// eventLog is the bounded structured event log: the newest size entries,
// oldest first. The sequence counter is part of the daemon's durable state:
// restoreRing carries it across restarts so entries are never silently
// renumbered, and onAppend (when set) persists each new entry to the WAL.
type eventLog struct {
	mu      sync.Mutex
	size    int
	seq     uint64
	entries []LogEntry
	// onAppend, when set, receives every appended entry after the log is
	// updated (outside its lock). The medic wires it to the WAL.
	onAppend func(LogEntry)
}

func newEventLog(size int) *eventLog { return &eventLog{size: size} }

// addf stamps one entry with the clock and appends it.
func (l *eventLog) addf(kind Kind, format string, args ...interface{}) uint64 {
	return l.add(LogEntry{At: time.Now(), Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// add appends one stamped entry under the next sequence number and returns
// the number.
func (l *eventLog) add(e LogEntry) uint64 {
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if l.entries = append(l.entries, e); len(l.entries) > l.size {
		l.entries = l.entries[1:]
	}
	hook := l.onAppend
	l.mu.Unlock()
	if hook != nil {
		hook(e)
	}
	return e.Seq
}

// restoreRing reloads the log from persisted state: the retained entries
// (oldest first, the newest size of them) and the monotonic sequence counter,
// so the first post-restart entry continues the numbering instead of
// starting over at 1. A durable seq never runs behind the entries.
func (l *eventLog) restoreRing(seq uint64, entries []LogEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = slices.Clone(entries[max(0, len(entries)-l.size):])
	l.seq = seq
	if n := len(l.entries); n > 0 {
		l.seq = max(seq, l.entries[n-1].Seq)
	}
}

// snapshot returns a copy of the retained entries, oldest first.
func (l *eventLog) snapshot() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.entries)
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
	Outcome
	Case string `json:"case,omitempty"`
	// Unreachable lists, ascending, the switches demoted or not restored
	// for agent unreachability this episode.
	Unreachable []topo.NodeID `json:"unreachable_switches,omitempty"`

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

// state is everything the daemon knows: what a pass works on, what the shell
// publishes, what a pass journals as its outcome, and (with the log beside
// it, durableState) what a checkpoint holds and a replay returns. One value,
// so that an observer or a successor finds one point in the daemon's history,
// never half of a transition.
type state struct {
	// Epoch counts applied event batches; 0 = nothing ever detected.
	Epoch uint64 `json:"epoch"`
	// Failed is the controller set currently believed down, ascending, never
	// nil.
	Failed []int `json:"failed"`
	// PendingRecovered are controllers whose return has been detected but
	// whose domains have not been restored whole yet, ascending.
	PendingRecovered []int `json:"pending_recovered,omitempty"`
	// Unreachable accumulates, ascending, the switches demoted by pushes in
	// this failure episode and those a fail-back did not reach; cleared when
	// the fail-back of the last controller is whole.
	Unreachable []topo.NodeID `json:"unreachable,omitempty"`
	Snap        snapshot      `json:"snap"`
	// Reserved is the highest epoch the store durably holds for this medic:
	// it signs none above (ensureReserved), and a successor resumes above it.
	// Always 0 without a store.
	Reserved uint64 `json:"reserved,omitempty"`
	// LogSeq is the last entry stamped when the state was as it reads here:
	// the entries up to it, and no others, belong to the state.
	LogSeq uint64 `json:"log_seq"`
}

// Outcome is what the last reconcile pass achieved, as the state keeps it and
// Status reports it.
type Outcome struct {
	// Ideal reports the steady state: nothing failed, ideal mapping in
	// force. Converged reports that the current failure set (possibly
	// empty) has a pushed plan.
	Ideal     bool `json:"ideal"`
	Converged bool `json:"converged"`

	// Plan metrics of the achieved (pushed) solution.
	MinProg        int `json:"min_prog"`
	TotalProg      int `json:"total_prog"`
	RecoveredFlows int `json:"recovered_flows"`
	OfflineFlows   int `json:"offline_flows"`
	// PushRounds counts the pass's pushes: one, plus one per re-plan.
	PushRounds    int `json:"push_rounds,omitempty"`
	FlowModsAcked int `json:"flow_mods_acked,omitempty"`
	Restores      int `json:"restores"`

	Mapping  []MappingEntry `json:"mapping,omitempty"`
	FlowProg []FlowProg     `json:"flow_prog,omitempty"`
}

// snapshot is the state's record of the last pass: its outcome, the case it
// planned (Status.Case) or why it did not, and when it ended.
type snapshot struct {
	Outcome
	Label     string    `json:"label,omitempty"`
	UpdatedAt time.Time `json:"updated_at"`
}

// idleState is the ideal steady state of a daemon that has seen nothing.
func idleState() state {
	return state{Failed: []int{}, Snap: snapshot{Outcome: Outcome{Ideal: true, Converged: true}, UpdatedAt: time.Now()}}
}

// detect folds one detector event into the failure set, live (step) or
// replayed from its record: a controller that returns from the set awaits its
// fail-back, one that was never in it is ignored, and one that fails again
// before its fail-back has nothing left to restore. The outcome describes the
// previous epoch until a pass replaces it: epoch N reads converged, or ideal,
// only once N has been planned.
func (s *state) detect(failed, recovered []int) {
	s.Snap.Converged, s.Snap.Ideal = false, false
	for _, j := range failed {
		s.Failed = setAdd(s.Failed, j)
		s.PendingRecovered, _ = setDel(s.PendingRecovered, j)
	}
	for _, j := range recovered {
		var wasDown bool
		if s.Failed, wasDown = setDel(s.Failed, j); wasDown {
			s.PendingRecovered = setAdd(s.PendingRecovered, j)
		}
	}
}

// setAdd and setDel keep a small ascending slice as a set, the form the
// state's sets have in plans, records and statuses. Both copy on write, so a
// state copied by value shares its sets safely. setDel reports whether the
// member was there.
func setAdd[T cmp.Ordered](set []T, v T) []T {
	i, found := slices.BinarySearch(set, v)
	if found {
		return set
	}
	return slices.Insert(slices.Clip(set), i, v)
}

func setDel[T cmp.Ordered](set []T, v T) ([]T, bool) {
	i, found := slices.BinarySearch(set, v)
	if !found {
		return set, false
	}
	return append(set[:i:i], set[i+1:]...), true
}

// publish makes the state as the shell holds it now the one everybody else
// sees, in one store. A pass publishes twice: in apply, once its detect
// entries are stamped, and in reconcile, once the entry that ends it is.
// Between the two nothing the pass does is visible; outside a pass only the
// reservation moves, and commit publishes that. The copy shares every slice
// with the pass, which replaces them and never writes into them.
func (m *Medic) publish() {
	s := m.cur.state
	m.pub.Store(&s)
}

// status renders a state — published by a live daemon, or replayed by a
// follower — with the newest logSize entries of the log that belong to it.
// Entries stamped since the state was published are left out: they are the
// first half of a transition whose second half the state does not show yet.
func (s *state) status(events []LogEntry) Status {
	for len(events) > 0 && events[len(events)-1].Seq > s.LogSeq {
		events = events[:len(events)-1]
	}
	if len(events) > logSize {
		events = events[len(events)-logSize:]
	}
	return Status{
		Now:           time.Now(),
		Epoch:         s.Epoch,
		EpochReserved: s.Reserved,
		Failed:        s.Failed,
		Outcome:       s.Snap.Outcome,
		Case:          s.Snap.Label,
		Unreachable:   s.Unreachable,
		Events:        events,
	}
}

// Status is the published state plus what only a live daemon has: identity,
// standby sessions, the network's ownership, failed store writes. The state
// is read before the log, so the log holds every entry the state shows.
// Detector is left for the daemon's status source to fill.
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

// Handler serves the daemon's HTTP surface over a status source (a leader's
// Medic.Status, a follower's ReadStatus) and a metrics registry:
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
