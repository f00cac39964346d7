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
// reconcile-pass, plan, push, restore and WAL-commit latencies; plans,
// pushes and WAL commits on a LAN take well under a millisecond.
var durationBuckets = [...]float64{0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

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

// Metrics is the daemon's metrics registry, hand-rolled and safe for
// concurrent use, rendered in Prometheus text format by WriteTo (/metrics).
// The zero value, with nothing wired or counted, is what a follower serves.
type Metrics struct {
	epochs      atomic.Uint64
	pushRetries atomic.Uint64
	fenced      atomic.Uint64
	restores    atomic.Uint64
	// pushFlowMods and fullAsserts count what recovery and fail-back pushes
	// sent: the flow-mods acknowledged, and the switches pushed their whole
	// table because the standby set could not vouch for it.
	pushFlowMods atomic.Uint64
	fullAsserts  atomic.Uint64
	leader       atomic.Uint64 // 1 when leader
	term         atomic.Uint64

	// reconcile times a pass; plan its compiles and solves, push and restore its
	// wire drivers (one Pusher, one Restorer call), so what a pass spends
	// outside the three is reconcile minus them. walCommit times the write +
	// fsync after it.
	reconcile, plan, push, restore, walCommit histogram

	sessions *sdnsim.Sessions       // standby-session gauge and counters, nil on a follower
	st       *store.Store           // WAL fsync/checkpoint/pending sources, nil standalone
	pub      *atomic.Pointer[state] // the medic's published state (its epoch reservation), wired with st
}

// sent counts one recovery or fail-back push.
func (x *Metrics) sent(outs []sdnsim.SwitchOutcome, acked int) {
	x.pushFlowMods.Add(uint64(acked))
	x.fullAsserts.Add(uint64(fullAsserts(outs)))
}

func (x *Metrics) setLeader(leader bool, term uint64) {
	if leader {
		x.leader.Store(1)
	} else {
		x.leader.Store(0)
	}
	x.term.Store(term)
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
	counter("pmedicd_push_flowmods_total", "Flow-mods acknowledged by recovery and fail-back pushes.", x.pushFlowMods.Load())
	counter("pmedicd_full_asserts_total", "Switch pushes sent as the whole table, not its difference: no record vouched for the table.", x.fullAsserts.Load())
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

	x.reconcile.write(&b, "pmedicd_reconcile_duration_seconds", "Latency of one reconcile pass (plan, push, adopt); it ends before the pass's WAL commit, which pmedicd_wal_commit_duration_seconds times.")
	x.plan.write(&b, "pmedicd_plan_duration_seconds", "Latency of one plan, from the previous stage's end: the failure set's compile and solve, or a re-solve around demoted switches (a pass that re-plans plans again).")
	x.push.write(&b, "pmedicd_push_duration_seconds", "Latency of one recovery push (every switch its plan maps, retries included; a pass that re-plans pushes again).")
	x.restore.write(&b, "pmedicd_restore_duration_seconds", "Latency of one fail-back push over the returned domains.")

	written, err := io.WriteString(w, b.String())
	return int64(written), err
}
