// Package medic is the online daemon's recovery orchestrator (cmd/pmedicd):
// it consumes liveness events from internal/monitor and keeps the network's
// path programmability reconciled with the failure set the detector reports —
// the paper's PM algorithm, run continuously instead of once.
//
// A reconcile pass is split between step (step.go), which decides, and a shell
// (apply, reconcile and exec below), which does. step is a pure function of the
// pass's state and one input — a detector batch, or the result of the effect
// it asked for last — and returns the next state, which names the effect the
// pass now waits on (reserve the epoch, restore returned domains, rehome them,
// plan, push, adopt, step down, or nothing: the pass is over), and the log
// entries it stamped. It reads no clock, channel or Medic field and calls no
// hook: each input carries the clock reading the shell took as it arrived.
// The shell runs on one goroutine, which owns the one state value (status.go);
// everyone else reads the copy it publishes, twice a pass.
//
// Epochs number the detector's events, and the generation IDs claimed on the
// wire derive from them, so a slow push from an earlier epoch can never
// re-take a switch from a newer one; a plan for an epoch that queued newer
// events is discarded unpushed. A standby control channel per switch
// (sdnsim.Sessions), warmed off the recovery path, makes a push one flush and
// one round trip. Nothing between a detector event and its converged entry
// waits for the disk: a pass stages its records and commits them as one group
// after its last entry, and epochs are reserved in durable blocks ahead of use
// (persist.go).
package medic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// genStride spaces the wire generation IDs of successive epochs, leaving
// room for the push driver's stale-claim resynchronization bumps inside an
// epoch while keeping later epochs strictly larger.
const genStride = 1 << 20

// PushFunc delivers a recovery plan; it matches sdnsim.PushRecoveryResilient.
type PushFunc func(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
	sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error)

// RestoreFunc delivers a fail-back; it matches sdnsim.RestoreIdeal.
type RestoreFunc func(addrs map[topo.NodeID]string, flows *flow.Set, switches []topo.NodeID,
	opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error)

// Config wires a Medic. Dep, Flows, and Addrs are required; the lifecycle
// (Open/Close) of Store belongs to the caller.
type Config struct {
	Dep   *topo.Deployment
	Flows *flow.Set
	// Addrs is the switch-agent address registry pushes are delivered to.
	Addrs map[topo.NodeID]string
	// Net, when set, receives ownership bookkeeping (AdoptMapping,
	// RehomeDomain), through its concurrency-safe lifecycle surface only.
	Net *sdnsim.Network
	// Push tunes the wire drivers; GenerationID and Seed are overridden
	// per epoch, Sessions with the medic's own set.
	Push sdnsim.PushOptions
	// Solve replaces the planning algorithm (default core.PM).
	Solve func(*core.Problem) (*core.Solution, error)
	// Pusher and Restorer replace the wire drivers (defaults:
	// sdnsim.PushRecoveryResilient, sdnsim.RestoreIdeal); tests stub them.
	Pusher   PushFunc
	Restorer RestoreFunc
	// Store, when set, persists the daemon's durable state as snapshot+WAL
	// (persist.go). New replays it, so a restarted daemon resumes mid-episode
	// at an epoch above anything its predecessor could have signed.
	Store *store.Store
	// ReplicaID names this daemon instance in Status (HA deployments).
	ReplicaID string
	// OnFenced fires, on the loop goroutine, when a push is refused by
	// generation-ID fencing or not attempted because the store's guard
	// refused its epoch: a newer leader has taken over, and this daemon must
	// step down.
	OnFenced func()
}

// Medic is the reconcile loop's shell. Create with New, feed with Start.
type Medic struct {
	cfg Config

	// cur is the state of the daemon and of its pass, written only by
	// whoever drives the medic: the loop goroutine, New and Fence before it
	// starts, FlushState after it has stopped. pub is the copy everyone else
	// reads (publish).
	cur pass
	pub atomic.Pointer[state]
	// role is the HA identity Status reports (SetRole).
	role atomic.Pointer[haRole]

	// sessions are the standby control channels, one per switch, that every
	// wire operation rides on. rewarm (capacity 1) wakes the warm-up after a
	// pass, which may have closed some.
	sessions *sdnsim.Sessions
	rewarm   chan struct{}

	log     *eventLog
	metrics *Metrics
	// persistFailures counts store writes that failed.
	persistFailures atomic.Uint64

	events    <-chan monitor.Event
	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// haRole is a replica's place in an HA deployment.
type haRole struct {
	name string
	term uint64
}

// New validates the wiring and returns an idle Medic.
func New(cfg Config) (*Medic, error) {
	if cfg.Dep == nil || cfg.Flows == nil {
		return nil, errors.New("medic: Dep and Flows are required")
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("medic: empty switch-agent address registry")
	}
	if cfg.Solve == nil {
		cfg.Solve = core.PM
	}
	if cfg.Pusher == nil {
		cfg.Pusher = sdnsim.PushRecoveryResilient
	}
	if cfg.Restorer == nil {
		cfg.Restorer = sdnsim.RestoreIdeal
	}
	ctx, err := scenario.NewContext(cfg.Dep, cfg.Flows)
	if err != nil {
		return nil, fmt.Errorf("medic: %w", err)
	}
	m := &Medic{
		cfg:      cfg,
		cur:      pass{state: idleState(), ctx: ctx},
		sessions: sdnsim.NewSessions(),
		rewarm:   make(chan struct{}, 1),
		log:      newEventLog(logSize),
		done:     make(chan struct{}),
	}
	m.metrics = &Metrics{sessions: m.sessions}
	if cfg.Store != nil {
		m.metrics.st, m.metrics.pub = cfg.Store, &m.pub
		ds, err := replayDurable(cfg.Store.Snapshot(), cfg.Store.Records())
		if err != nil {
			return nil, fmt.Errorf("medic: restore: %w", err)
		}
		if ds != nil {
			// The resumed epoch lies past the predecessor's reservation, so
			// its first generation ID is above anything the dead incarnation
			// could have signed, and its in-flight pushes are fenced on the
			// wire. It signs nothing until it has made its own reservation.
			m.cur.state = ds.state
			m.cur.Epoch = max(ds.Epoch, ds.Reserved) + 1
			m.log.restoreRing(ds.LogSeq, ds.LogEntries)
		}
		// Wire the log to the WAL only after restore, so replayed entries
		// are not re-appended.
		m.log.onAppend = func(e LogEntry) { m.stage(recLog, e) }
		// Staged, like every record from here on: New does not wait for the
		// disk; the first reservation commits it.
		if ds != nil {
			m.cur.LogSeq = m.log.addf(KindResume, "resumed at epoch %d from snapshot+WAL (epoch %d, reserved through %d): failed=%v, %d unreachable, log seq %d",
				m.cur.Epoch, ds.Epoch, ds.Reserved, ds.Failed, len(ds.Unreachable), ds.LogSeq)
		}
	}
	m.publish()
	return m, nil
}

// FenceGen is the generation a freshly promoted leader stamps onto the
// agents (Fence): the bottom of the current epoch's range, above every claim
// an earlier epoch — the deposed leader's — signed.
func (m *Medic) FenceGen() uint64 { return m.pub.Load().Epoch * genStride }

// Fence is the takeover sweep of a freshly promoted leader, called before
// Start: it reserves the epochs the sweep and the first recoveries sign, then
// stamps FenceGen onto every agent (sdnsim.FenceAgents) on the medic's own
// standby sessions, which the first recovery then pushes on. A medic that has
// never seen an epoch has no predecessor and sweeps nothing; one whose
// reservation the store's guard refuses is not the leader and sweeps nothing.
func (m *Medic) Fence() (gen uint64, fenced int, err error) {
	epoch := m.cur.Epoch
	gen = epoch * genStride
	if err := m.ensureReserved(epoch + 1); err != nil {
		return gen, 0, fmt.Errorf("medic: fence: %w", err)
	}
	if gen == 0 {
		return 0, 0, nil
	}
	fenced, _, err = sdnsim.FenceAgents(m.cfg.Addrs, gen, m.pushOpts(epoch))
	return gen, fenced, err
}

// SetRole records the daemon's HA identity for Status and the leader
// gauge.
func (m *Medic) SetRole(role string, term uint64) {
	m.role.Store(&haRole{name: role, term: term})
	m.metrics.setLeader(role == "leader", term)
}

// Metrics exposes the daemon's metrics registry (the /metrics source).
func (m *Medic) Metrics() *Metrics { return m.metrics }

// Start launches the reconcile loop over the detector's event stream and the
// warm-up of the standby sessions beside it. The loop exits when the stream
// closes or Stop is called.
func (m *Medic) Start(events <-chan monitor.Event) {
	m.startOnce.Do(func() {
		m.events = events
		m.wg.Add(2)
		go m.run()
		go m.keepWarm()
	})
}

// Stop halts the loop and the warm-up, waits for an in-flight reconcile and
// an in-flight warm-up dial to finish, and leaves no standby session open.
func (m *Medic) Stop() {
	m.stopOnce.Do(func() {
		close(m.done)
		m.sessions.Close()
		m.wg.Wait()
	})
}

// keepWarm opens a standby session to every switch, then again after each
// pass to whichever switches lost theirs. A push that finds a switch cold
// dials it, so the warm-up never holds up a recovery.
func (m *Medic) keepWarm() {
	defer m.wg.Done()
	for {
		m.sessions.Warm(m.cfg.Addrs, m.cfg.Push)
		select {
		case <-m.done:
			return
		case <-m.rewarm:
		}
	}
}

func (m *Medic) run() {
	defer m.wg.Done()
	// The first event's epoch is reserved before the event exists (a no-op
	// after Fence); a refusal is dealt with by the pass that meets it.
	_ = m.ensureReserved(m.cur.Epoch + 1)
	// A resumed state with no plan in force for its failure set gets one pass
	// before any event: the detector, which is told the restored set is down,
	// has nothing to announce. The empty batch detects nothing, so the pass
	// reserves the resumed epoch, restores any pending fail-back and plans.
	if !m.cur.Snap.Converged {
		m.apply([]monitor.Event{}...)
		m.reconcile()
	}
	for {
		select {
		case <-m.done:
			return
		case ev, ok := <-m.events:
			if !ok {
				return
			}
			// Correlated events queued together collapse into one pass.
			batch := []monitor.Event{ev}
			for more := true; more; {
				select {
				case ev, ok := <-m.events:
					if more = ok; ok {
						batch = append(batch, ev)
					}
				default:
					more = false
				}
			}
			m.apply(batch...)
			m.reconcile()
		}
	}
}

// feed hands step one input and appends the entries it stamped to the log.
func (m *Medic) feed(in input) {
	var entries []LogEntry
	m.cur, entries = step(m.cur, in)
	for _, e := range entries {
		m.cur.LogSeq = m.log.add(e)
	}
}

// apply begins a pass with one detector batch, stamped with the clock reading
// taken as it came off the channel: step gives each event an epoch and a
// detect entry. The detect records are staged, to reach the store with the
// entries in the pass's one commit, and the state is published once the
// entries are in the log: a status that shows epoch N shows what started it.
func (m *Medic) apply(batch ...monitor.Event) {
	epoch := m.cur.Epoch
	m.feed(input{at: time.Now(), events: batch})
	for i, ev := range batch {
		m.stage(recDetect, detectRecord{Epoch: epoch + uint64(i) + 1, Failed: ev.Failed, Recovered: ev.Recovered})
	}
	m.publish()
	m.metrics.epochs.Add(uint64(len(batch)))
}

// pushOpts derives the wire options for one reserved epoch: an epoch-ranked
// generation ID (stale pushes are refused on the wire), the fencing limit that
// keeps resynchronization inside the epoch's stride, a decorrelated
// retry-jitter seed, and the medic's standby sessions.
func (m *Medic) pushOpts(epoch uint64) sdnsim.PushOptions {
	opts := m.cfg.Push
	opts.Sessions = m.sessions
	opts.GenerationID = epoch*genStride + 1
	opts.GenerationLimit = (epoch+1)*genStride - 1
	opts.Seed = m.cfg.Push.Seed ^ int64(epoch)
	return opts
}

// reconcile runs the pass apply began to its end, executing each effect step
// asks for and feeding the result back. Only then does anyone see what the
// pass did to the state, and only after that does any of it go to disk.
func (m *Medic) reconcile() {
	start := m.cur.at
	for m.cur.next.kind != effEnd {
		m.feed(m.exec(m.cur.next))
	}
	m.publish()
	m.metrics.reconcile.observe(m.cur.at.Sub(start))
	m.commitPass()
	m.maybeCheckpoint()
	select {
	case m.rewarm <- struct{}{}:
	default:
	}
}

// exec runs one effect and returns its result as step's next input, stamped
// with the one clock reading taken as the effect returned; the effect's
// metrics are observed from it and the previous input's. A plan reports
// whether newer events are queued behind the pass.
func (m *Medic) exec(e effect) input {
	var in input
	epoch := m.cur.Epoch
	switch e.kind {
	case effReserve:
		in.err = m.ensureReserved(epoch)
	case effRestore:
		in.restored, in.err = m.cfg.Restorer(m.cfg.Addrs, m.cfg.Flows, e.switches, m.pushOpts(epoch))
	case effRehome:
		for _, j := range e.ctrls {
			if m.cfg.Net != nil {
				m.cfg.Net.RehomeDomain(j)
			}
		}
		m.metrics.restores.Add(uint64(len(e.ctrls)))
	case effPlan:
		in.sol, in.err = m.plan(e)
		in.queued = len(m.events) > 0
	case effPush:
		in.pushed, in.err = m.cfg.Pusher(m.cfg.Addrs, m.cfg.Flows, e.inst, e.sol, m.pushOpts(epoch))
	case effAdopt:
		if m.cfg.Net != nil {
			in.err = m.cfg.Net.AdoptMapping(e.inst, e.sol)
		}
	case effStepDown:
		if m.cfg.OnFenced != nil {
			m.cfg.OnFenced()
		}
	}
	in.at = time.Now()
	took := in.at.Sub(m.cur.at)
	switch e.kind {
	case effPlan:
		m.metrics.plan.observe(took)
	case effRestore:
		m.metrics.restore.observe(took)
		if in.err == nil {
			m.metrics.sent(in.restored.Outcomes, in.restored.FlowModsAcked)
		}
	case effPush:
		m.metrics.push.observe(took)
		if in.err == nil {
			m.metrics.pushRetries.Add(pushRetries(in.pushed))
			m.metrics.fenced.Add(uint64(fencedOutcomes(in.pushed)))
			m.metrics.sent(in.pushed.Outcomes, in.pushed.FlowModsAcked)
		}
	}
	return in
}

// plan solves the instance, around the switches in avoid when there are any.
func (m *Medic) plan(e effect) (*core.Solution, error) {
	if e.avoid != nil {
		return e.inst.SolveResidual(e.avoid, m.cfg.Solve)
	}
	return m.cfg.Solve(e.inst.Problem)
}

// pushRetries totals the connection attempts beyond each switch's first.
func pushRetries(rep *sdnsim.RecoveryReport) uint64 {
	var n uint64
	for i := range rep.Outcomes {
		if a := rep.Outcomes[i].Attempts; a > 1 {
			n += uint64(a - 1)
		}
	}
	return n
}
