package medic

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
)

// durationBuckets are the histogram upper bounds, in seconds, shared by the
// reconcile-pass, push, restore and WAL-commit latencies.
var durationBuckets = [...]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// histogram is one cumulative latency histogram over durationBuckets.
type histogram struct {
	mu  sync.Mutex
	n   uint64
	sum float64
	le  [len(durationBuckets)]uint64 // cumulative counts per bucket
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	h.mu.Lock()
	h.n++
	h.sum += secs
	for i, le := range durationBuckets {
		if secs <= le {
			h.le[i]++
		}
	}
	h.mu.Unlock()
}

// write renders the histogram in Prometheus text format.
func (h *histogram) write(b *strings.Builder, name, help string) {
	h.mu.Lock()
	n, sum, le := h.n, h.sum, h.le
	h.mu.Unlock()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, bound := range durationBuckets {
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, le[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, n)
	fmt.Fprintf(b, "%s_sum %g\n", name, sum)
	fmt.Fprintf(b, "%s_count %d\n", name, n)
}

// Metrics is the daemon's metrics registry, rendered in Prometheus text
// exposition format by WriteTo (the /metrics handler). It is hand-rolled —
// the repo takes no dependency on a client library — and safe for
// concurrent use. The zero value is a registry with nothing wired and nothing
// counted: what a follower, which runs no medic, serves.
type Metrics struct {
	epochs      atomic.Uint64
	pushRetries atomic.Uint64
	fenced      atomic.Uint64
	restores    atomic.Uint64
	leader      atomic.Uint64 // 1 when leader
	term        atomic.Uint64

	// Plan-store consultation outcomes; rendered only when a store is wired.
	planHits   atomic.Uint64
	planMisses atomic.Uint64
	planErrors atomic.Uint64

	// reconcile times a whole reconcile pass; push and restore time the wire
	// drivers inside it (one Pusher call, one Restorer call), the stage that
	// dominates a recovery once the control channel carries real delay.
	// walCommit times the write + fsync that ends a pass, after reconcile's
	// clock has stopped.
	reconcile, push, restore, walCommit histogram

	sessions *sdnsim.Sessions       // standby-session gauge and counters, nil on a follower
	st       *store.Store           // WAL fsync/checkpoint/pending sources, nil standalone
	pub      *atomic.Pointer[state] // the medic's published state (its epoch reservation), wired with st
	// plansEnabled is set once at wiring time, before the loop starts.
	plansEnabled bool
}

func newMetrics(sessions *sdnsim.Sessions) *Metrics {
	return &Metrics{sessions: sessions}
}

// wireStore attaches the persistence layer, and the published state whose
// epoch reservation the medic keeps in it, as metrics sources.
func (x *Metrics) wireStore(st *store.Store, pub *atomic.Pointer[state]) {
	x.st, x.pub = st, pub
}

// wirePlans enables the plan-store outcome counters.
func (x *Metrics) wirePlans() { x.plansEnabled = true }

func (x *Metrics) addEpoch()               { x.epochs.Add(1) }
func (x *Metrics) addPushRetries(n uint64) { x.pushRetries.Add(n) }
func (x *Metrics) addFenced(n uint64)      { x.fenced.Add(n) }
func (x *Metrics) addRestore()             { x.restores.Add(1) }
func (x *Metrics) addPlanHit()             { x.planHits.Add(1) }
func (x *Metrics) addPlanMiss()            { x.planMisses.Add(1) }
func (x *Metrics) addPlanError()           { x.planErrors.Add(1) }

func (x *Metrics) setLeader(leader bool, term uint64) {
	if leader {
		x.leader.Store(1)
	} else {
		x.leader.Store(0)
	}
	x.term.Store(term)
}

// PlanStoreCounts returns the plan-store outcome counters (hits, misses,
// errors) — a test and status convenience.
func (x *Metrics) PlanStoreCounts() (hits, misses, errors uint64) {
	return x.planHits.Load(), x.planMisses.Load(), x.planErrors.Load()
}

// WriteTo renders the registry in Prometheus text format.
func (x *Metrics) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("pmedicd_epochs_applied_total", "Detector event batches folded into the failure set.", x.epochs.Load())
	counter("pmedicd_push_retries_total", "Per-switch push connection attempts beyond the first.", x.pushRetries.Load())
	counter("pmedicd_fenced_pushes_total", "Switch pushes refused by generation-ID fencing.", x.fenced.Load())
	counter("pmedicd_restores_total", "Returned controller domains restored to the ideal mapping.", x.restores.Load())
	gauge("pmedicd_leader", "1 when this replica holds the leader lease, 0 otherwise.", x.leader.Load())
	gauge("pmedicd_leader_term", "Fencing term of the last lease this replica held or observed.", x.term.Load())

	// Why a recovery took a dial and a handshake longer than the last one: its
	// switch had no session standing by.
	if x.sessions != nil {
		ss := x.sessions.Stats()
		gauge("pmedicd_standby_sessions", "Control channels standing by, open and idle, one per switch at most.", uint64(ss.Idle))
		counter("pmedicd_session_reuses_total", "Push, restore and fence attempts that ran on a standby session (no dial).", ss.Reused)
		counter("pmedicd_session_dials_total", "Control channels dialled: warm-up, cold start, a session lost or busy.", ss.Dialled)
		counter("pmedicd_session_stale_redials_total", "Standby sessions found dead on use and redialled at once.", ss.StaleRedialled)
	}

	if x.st != nil {
		counter("pmedicd_wal_fsyncs_total", "fsync calls issued by the snapshot+WAL store.", x.st.Fsyncs())
		counter("pmedicd_wal_commits_total", "Record groups written to the WAL: one per reconcile pass, plus epoch reservations made outside one.", x.st.Commits())
		counter("pmedicd_wal_checkpoints_total", "WAL-into-snapshot checkpoints completed.", x.st.Checkpoints())
		gauge("pmedicd_wal_pending_records", "WAL records not yet folded into a snapshot.", uint64(x.st.Pending()))
		gauge("pmedicd_epoch_reserved", "Highest epoch durably reserved: this daemon signs nothing above it, a successor resumes above it.", x.pub.Load().Reserved)
		x.walCommit.write(&b, "pmedicd_wal_commit_duration_seconds", "Latency of one WAL group commit (write + fsync), paid after the pass it records.")
	}

	if x.plansEnabled {
		counter("pmedicd_planstore_hits_total", "Recovery plans served from the precompiled plan store.", x.planHits.Load())
		counter("pmedicd_planstore_misses_total", "Failure sets absent from the plan store (full solve paid).", x.planMisses.Load())
		counter("pmedicd_planstore_errors_total", "Plan-store consultations that failed and degraded to a solve.", x.planErrors.Load())
	}

	x.reconcile.write(&b, "pmedicd_reconcile_duration_seconds", "Latency of one reconcile pass (plan, push, adopt); it ends before the pass's WAL commit, which pmedicd_wal_commit_duration_seconds times.")
	x.push.write(&b, "pmedicd_push_duration_seconds", "Latency of one recovery push (every offline switch, retries and re-plan rounds included).")
	x.restore.write(&b, "pmedicd_restore_duration_seconds", "Latency of one fail-back push over the returned domains.")

	written, err := io.WriteString(w, b.String())
	return int64(written), err
}
