// Package medic is the event-driven recovery orchestrator of the online
// daemon (cmd/pmedicd): it consumes liveness events from internal/monitor
// and keeps the network's path programmability reconciled with the failure
// set the detector reports — the paper's PM algorithm, run continuously
// instead of once.
//
// One serialized reconcile loop owns all decisions and the one state value
// they are made on (status.go); everyone else reads the copy it publishes. Per
// event batch it:
//
//   - compiles the current failure set into a scenario.Instance and solves
//     it (core.PM by default);
//   - for successive failures, reuses scenario.Instance.Residual to drop
//     switches already proven unreachable in this episode, so a new failure
//     does not re-spend push attempts on known-dead agents;
//   - pushes the plan through sdnsim.PushRecoveryResilient and adopts the
//     achieved mapping into the simulator's ownership bookkeeping;
//   - on controller return, restores the ideal configuration of the
//     returned domain through sdnsim.RestoreIdeal (fail-back) and re-plans
//     whatever failures remain.
//
// The medic holds one standby control channel per switch (sdnsim.Sessions):
// a warm-up started by Start opens them off the recovery path and re-opens
// whatever a reconcile dropped, so a push or a fail-back is one flush and one
// round trip on a channel that is already open; Stop closes them.
//
// Epochs number the event batches; the generation IDs claimed on the wire
// are derived from the epoch, so a slow push from an earlier epoch can
// never re-take a switch from a newer one (the agents refuse the stale
// claim), and a plan computed for an epoch that queued newer events before
// it was pushed is discarded, never pushed. Every decision lands in a
// bounded structured event log, exposed with the rest of the daemon state
// via the HTTP status handler (status.go).
//
// Nothing between a detector event and the converged entry it leads to waits
// for the disk. With a store wired, a pass only stages its records (detect,
// log entries, outcome) and commits them as one group — one write, one fsync —
// in reconcile's tail, after the entry that ends the pass has been stamped.
// What used to need a write ahead of the push, that a successor resumes above
// every epoch this medic signed, is kept by reserving epochs in blocks ahead
// of use (persist.go): a medic signs no epoch it has not durably reserved,
// and a successor resumes above the reservation.
package medic

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/planstore"
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

// Config wires a Medic. Dep, Flows, and Addrs are required.
type Config struct {
	Dep   *topo.Deployment
	Flows *flow.Set
	// Addrs is the switch-agent address registry pushes are delivered to.
	Addrs map[topo.NodeID]string
	// Net, when set, receives ownership bookkeeping (AdoptMapping) after
	// each successful push. Only the concurrency-safe lifecycle surface of
	// Network is used.
	Net *sdnsim.Network
	// Push tunes the wire drivers; GenerationID and Seed are overridden
	// per epoch, Sessions with the medic's own set.
	Push sdnsim.PushOptions
	// Solve replaces the planning algorithm (default core.PM).
	Solve func(*core.Problem) (*core.Solution, error)
	// Plans, when set, is the precompiled plan store consulted before every
	// solve: an exact hit serves the stored plan (byte-identical to a fresh
	// solve), an uncompiled set falls back to the nearest superset plan plus
	// a residual repair, and only a miss pays the full solve. The store's
	// lifecycle (Open/Close) belongs to the caller. A store whose topology
	// hash does not match Dep and Flows is refused: New returns an error
	// wrapping planstore.ErrMismatch.
	Plans *planstore.Store
	// Pusher and Restorer replace the wire drivers (defaults:
	// sdnsim.PushRecoveryResilient, sdnsim.RestoreIdeal); tests stub them.
	Pusher   PushFunc
	Restorer RestoreFunc

	// Store, when set, persists the daemon's durable state — epoch, epoch
	// reservation, failure set, adopted mapping, unreachable set, event log —
	// as snapshot+WAL. New replays it, so a restarted daemon resumes
	// mid-episode at an epoch strictly greater than anything its predecessor
	// could have signed, instead of re-detecting from scratch. The medic
	// commits one group of records per reconcile pass; the store's lifecycle
	// (Open/Close) belongs to the caller.
	Store *store.Store
	// ReplicaID names this daemon instance in Status (HA deployments).
	ReplicaID string
	// OnFenced fires (once per reconcile, on the loop goroutine) when a
	// push is refused by generation-ID fencing, or not attempted because the
	// store's guard refused to reserve its epoch — either way the signal that
	// a newer leader has taken over and this daemon must step down.
	OnFenced func()
}

// Medic is the reconcile loop. Create with New, feed with Start.
type Medic struct {
	cfg Config
	// ctx caches the failure-independent scenario state (delay vectors,
	// middle-layer placement, domain loads), so every reconcile compiles its
	// failure set without re-walking the topology.
	ctx *scenario.Context

	// cur is the daemon's state, written by whoever drives the medic and by
	// nobody else: the loop goroutine, New and Fence before it starts,
	// FlushState after it has stopped. pub is the copy everyone else reads
	// (publish).
	cur state
	pub atomic.Pointer[state]
	// role is the HA identity Status reports (SetRole).
	role atomic.Pointer[haRole]

	// sessions are the standby control channels, one per switch in
	// cfg.Addrs, that every wire operation of this medic rides on. rewarm
	// (capacity 1: a pending pass covers every drop before it) wakes the
	// warm-up after a reconcile, which may have closed some.
	sessions *sdnsim.Sessions
	rewarm   chan struct{}

	log     *eventLog
	metrics *Metrics
	// persistFailures counts store writes that failed (durability degraded
	// but the daemon stays up).
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
	if cfg.Plans != nil {
		// A store compiled for a different deployment would serve plans whose
		// switch indices, delays, and capacities are all stale.
		if got, want := cfg.Plans.Header().TopoHash, planstore.TopoHash(cfg.Dep, cfg.Flows); got != want {
			return nil, fmt.Errorf("medic: plan store %s: %w: topology hash %#x, deployment %#x; recompile with pmstore",
				cfg.Plans.Path(), planstore.ErrMismatch, got, want)
		}
	}
	ctx, err := scenario.NewContext(cfg.Dep, cfg.Flows)
	if err != nil {
		return nil, fmt.Errorf("medic: %w", err)
	}
	m := &Medic{
		cfg:      cfg,
		ctx:      ctx,
		cur:      idleState(),
		sessions: sdnsim.NewSessions(),
		rewarm:   make(chan struct{}, 1),
		log:      newEventLog(logSize),
		done:     make(chan struct{}),
	}
	m.metrics = newMetrics(m.sessions)
	if cfg.Plans != nil {
		m.metrics.wirePlans()
		m.logf(KindPlan, "plan store %s: %d precompiled plans up to depth %d (%s)",
			cfg.Plans.Path(), cfg.Plans.Len(), cfg.Plans.Header().Depth, cfg.Plans.Header().Algorithm)
	}
	if cfg.Store != nil {
		m.metrics.wireStore(cfg.Store, &m.pub)
		ds, err := replayDurable(cfg.Store.Snapshot(), cfg.Store.Records())
		if err != nil {
			return nil, fmt.Errorf("medic: restore: %w", err)
		}
		if ds != nil {
			m.restore(ds)
		}
		// Wire the log to the WAL only after restore, so replayed entries
		// are not re-appended.
		m.log.onAppend = func(e LogEntry) { m.stage(recLog, e) }
		// Staged, like every record from here on: New does not wait for the
		// disk; the first reservation commits it.
		if ds != nil {
			m.logf(KindResume, "resumed at epoch %d from snapshot+WAL (epoch %d, reserved through %d): failed=%v, %d unreachable, log seq %d",
				m.cur.Epoch, ds.Epoch, ds.Reserved, ds.Failed, len(ds.Unreachable), ds.LogSeq)
		}
	}
	m.publish()
	return m, nil
}

// restore loads a replayed durable state and bumps the epoch past the
// predecessor's reservation, so the resumed daemon's first generation ID is
// strictly greater than anything the dead incarnation could have signed —
// including epochs whose records it never got to commit — and its in-flight
// pushes are fenced on the wire. The reservation it inherits lies below the
// new epoch: this incarnation signs nothing until it has made its own.
func (m *Medic) restore(ds *durableState) {
	m.cur = ds.state
	m.cur.Epoch = max(ds.Epoch, ds.Reserved) + 1
	m.log.restoreRing(ds.LogSeq, ds.LogEntries)
}

// FenceGen is the generation a freshly promoted leader stamps onto the
// agents (Fence): the bottom of the current epoch's range. Every claim signed
// by an earlier epoch — the deposed leader's — compares below it and is
// refused.
func (m *Medic) FenceGen() uint64 { return m.pub.Load().Epoch * genStride }

// Fence is the takeover sweep of a freshly promoted leader: it reserves the
// block of epochs the sweep and the first recoveries are signed with, then
// stamps FenceGen onto every agent (sdnsim.FenceAgents) with the medic's own
// wire options, so the sweep's channels stay open as the standby sessions the
// first recovery pushes on. A medic that has never seen an epoch (gen 0) has
// no predecessor to fence and sweeps nothing. A reservation the store's guard
// refuses means this replica is not the leader: nothing is swept. Call it
// before Start.
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

// Start launches the reconcile loop over the detector's event stream, and
// beside it the warm-up of the standby sessions; it returns before either has
// done anything. The loop exits when the stream closes or Stop is called.
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
// reconcile to whichever switches lost theirs. It never holds up a recovery:
// a push that finds a switch cold dials it as it would without the set.
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
	// after Fence). Refused now is refused again in front of the first push,
	// which is where it is dealt with.
	_ = m.ensureReserved(m.cur.Epoch + 1)
	for {
		select {
		case <-m.done:
			return
		case ev, ok := <-m.events:
			if !ok {
				return
			}
			m.apply(ev)
			// Batch whatever the detector queued behind it: correlated
			// events collapse into one reconcile.
			for drained := false; !drained; {
				select {
				case ev2, ok2 := <-m.events:
					if !ok2 {
						drained = true
						break
					}
					m.apply(ev2)
				default:
					drained = true
				}
			}
			m.reconcile()
		}
	}
}

// logf stamps one entry into the event log and moves the state's log position
// onto it.
func (m *Medic) logf(kind Kind, format string, args ...any) {
	m.cur.LogSeq = m.log.addf(kind, format, args...)
}

// apply folds one detector event into the failure set, advances the epoch and
// publishes the result — after the detect entry is in the log, so a status
// that shows epoch N also shows what started it. Entry and detect record are
// only staged; they reach the store in the commit that ends the pass, as one
// group, so a follower's ReadStatus sees both or neither.
func (m *Medic) apply(ev monitor.Event) {
	s := &m.cur
	s.Epoch++
	m.logf(KindDetect, "epoch %d: %s", s.Epoch, ev)
	m.stage(recDetect, detectRecord{Epoch: s.Epoch, Failed: ev.Failed, Recovered: ev.Recovered})
	// The reconciled state describes the previous epoch until reconcile
	// replaces it: epoch N reads converged only once N has been planned.
	s.Snap.Converged = false
	s.detect(ev.Failed, ev.Recovered)
	m.publish()
	m.metrics.addEpoch()
}

// stalePlan reports whether newer detector events are already queued — the
// signal that a plan computed for the current epoch must be discarded
// instead of pushed.
func (m *Medic) stalePlan() bool { return len(m.events) > 0 }

// pushOpts derives the wire options for one epoch, which the caller has taken
// through ensureReserved: an epoch-ranked generation ID (stale pushes are
// refused on the wire), the matching fencing limit (a push signed by this
// epoch may resynchronize inside the epoch's generation stride but never claim
// into a later epoch's range), a decorrelated retry-jitter seed, and the
// medic's standby sessions.
func (m *Medic) pushOpts(epoch uint64) sdnsim.PushOptions {
	opts := m.cfg.Push
	opts.Sessions = m.sessions
	opts.GenerationID = epoch*genStride + 1
	opts.GenerationLimit = (epoch+1)*genStride - 1
	opts.Seed = m.cfg.Push.Seed ^ int64(epoch)
	return opts
}

// reconcile drives the failure set to a pushed, adopted plan. It runs only
// on the loop goroutine; the epoch cannot advance underneath it, but newer
// events can queue, which is checked between planning and pushing. Whatever
// way it returns, the entry that says how the pass ended is stamped by then,
// and only then does anyone see what the pass did to the state.
func (m *Medic) reconcile() {
	start := time.Now()
	defer func() {
		// The pass is over, and visible, before anything of it goes to disk.
		m.publish()
		m.metrics.reconcile.observe(time.Since(start))
		m.commitPass()
		m.maybeCheckpoint()
		select {
		case m.rewarm <- struct{}{}:
		default:
		}
	}()

	epoch := m.cur.Epoch
	if err := m.ensureReserved(epoch); err != nil {
		// Not signing is the whole point: a successor resumed above the last
		// reservation and fenced below its own epoch, and a claim signed with
		// an epoch outside the reservation could land in its range.
		m.setUnconverged(fmt.Sprintf("epoch %d is not reserved", epoch))
		m.logf(KindFenced, "epoch %d: nothing pushed: %v; a newer leader owns the store", epoch, err)
		if m.cfg.OnFenced != nil {
			m.cfg.OnFenced()
		}
		return
	}

	failed := m.cur.Failed
	recovered := m.cur.PendingRecovered
	m.cur.PendingRecovered = nil

	// Fail-back first: returned controllers re-took their domains; push the
	// ideal configuration back so demoted flows are SDN-routed again.
	m.restoreDomains(epoch, recovered)

	if len(failed) == 0 {
		m.cur.Unreachable = nil
		m.cur.Snap = snapshot{Converged: true, Ideal: true, Restores: m.cur.Snap.Restores, UpdatedAt: time.Now()}
		if len(recovered) > 0 {
			m.logf(KindFailback, "epoch %d: all controllers back, ideal mapping restored", epoch)
		}
		return
	}

	inst, err := m.ctx.Build(failed)
	if err != nil {
		m.setUnconverged(fmt.Sprintf("failure set %v is unplannable", failed))
		m.logf(KindError, "epoch %d: compile %v: %v", epoch, failed, err)
		return
	}

	sol, err := m.plan(epoch, inst)
	if err != nil {
		m.setUnconverged(fmt.Sprintf("planning for %s failed", inst.Label()))
		m.logf(KindError, "epoch %d: plan %s: %v", epoch, inst.Label(), err)
		return
	}

	if m.stalePlan() {
		m.logf(KindStale, "epoch %d: plan for %s discarded, newer events queued", epoch, inst.Label())
		return
	}

	pushStart := time.Now()
	rep, err := m.cfg.Pusher(m.cfg.Addrs, m.cfg.Flows, inst, sol, m.pushOpts(epoch))
	m.metrics.push.observe(time.Since(pushStart))
	if err != nil {
		m.setUnconverged(fmt.Sprintf("push for %s failed", inst.Label()))
		m.logf(KindError, "epoch %d: push %s: %v", epoch, inst.Label(), err)
		return
	}
	m.metrics.addPushRetries(pushRetries(rep))

	// A fenced push means a newer epoch — a newer leader — owns the
	// switches now. This daemon's view is stale: report, step down, and
	// leave the network to the claimant instead of fighting it.
	if n := fencedOutcomes(rep); n > 0 {
		m.metrics.addFenced(uint64(n))
		m.setUnconverged(fmt.Sprintf("push for %s fenced by a newer generation", inst.Label()))
		m.logf(KindFenced, "epoch %d: push %s refused by generation-ID fencing on %d switch(es); a newer leader owns the network",
			epoch, inst.Label(), n)
		if m.cfg.OnFenced != nil {
			m.cfg.OnFenced()
		}
		return
	}

	m.logf(KindPush, "epoch %d: pushed %s: %d flow-mods acked in %d round(s), %d demoted",
		epoch, inst.Label(), rep.FlowModsAcked, rep.Rounds, len(rep.Demoted))

	for _, sw := range rep.Demoted {
		m.cur.Unreachable = setAdd(m.cur.Unreachable, sw)
	}

	if m.cfg.Net != nil {
		if err := m.cfg.Net.AdoptMapping(inst, rep.Final); err != nil {
			m.setUnconverged(fmt.Sprintf("adopting the %s mapping failed", inst.Label()))
			m.logf(KindError, "epoch %d: adopt %s: %v", epoch, inst.Label(), err)
			return
		}
	}

	m.cur.Snap = achievedSnapshot(inst, rep, m.cur.Snap.Restores)
	m.logf(KindConverged, "epoch %d: converged on %s: r=%d total=%d recovered=%d/%d",
		epoch, inst.Label(), rep.Achieved.MinProg, rep.Achieved.TotalProg,
		rep.Achieved.RecoveredFlows, inst.OfflineFlowCount())
}

// achievedSnapshot flattens a pushed plan into the serializable reconciled
// state: the mapping table in instance switch order, per-flow achieved
// programmability sorted by flow ID, and the plan metrics.
func achievedSnapshot(inst *scenario.Instance, rep *sdnsim.RecoveryReport, restores int) snapshot {
	s := snapshot{
		Converged:      true,
		Label:          inst.Label(),
		Restores:       restores,
		MinProg:        rep.Achieved.MinProg,
		TotalProg:      rep.Achieved.TotalProg,
		RecoveredFlows: rep.Achieved.RecoveredFlows,
		OfflineFlows:   inst.OfflineFlowCount(),
		PushRounds:     rep.Rounds,
		FlowModsAcked:  rep.FlowModsAcked,
		UpdatedAt:      time.Now(),
	}
	for i, jj := range rep.Final.SwitchController {
		e := MappingEntry{Switch: inst.Switches[i], Controller: -1}
		if jj >= 0 {
			e.Controller = inst.Active[jj]
		}
		s.Mapping = append(s.Mapping, e)
	}
	for l, prog := range rep.Achieved.FlowProg {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: inst.FlowIDs[l], Prog: prog})
	}
	for _, lid := range inst.Unrecoverable {
		s.FlowProg = append(s.FlowProg, FlowProg{Flow: lid, Prog: 0})
	}
	sort.Slice(s.FlowProg, func(a, b int) bool { return s.FlowProg[a].Flow < s.FlowProg[b].Flow })
	return s
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

// fencedOutcomes counts switches whose push was refused by generation-ID
// fencing.
func fencedOutcomes(rep *sdnsim.RecoveryReport) int {
	n := 0
	for i := range rep.Outcomes {
		if rep.Outcomes[i].Err != nil && errors.Is(rep.Outcomes[i].Err, sdnsim.ErrFenced) {
			n++
		}
	}
	return n
}

// plan solves the instance, incrementally when possible: switches already
// proven unreachable in this episode are dropped through Residual before
// solving, and the residual solution is translated back into the
// instance's pair index space.
func (m *Medic) plan(epoch uint64, inst *scenario.Instance) (*core.Solution, error) {
	// The common case — nothing demoted — must not allocate: plan runs per
	// failure event and the map is only needed when a push already failed.
	var demoted map[topo.NodeID]bool
	for _, sw := range inst.Switches {
		if _, down := slices.BinarySearch(m.cur.Unreachable, sw); down {
			if demoted == nil {
				demoted = make(map[topo.NodeID]bool, len(inst.Switches))
			}
			demoted[sw] = true
		}
	}

	if len(demoted) == 0 {
		// Failure-time fast path: serve the plan from the precompiled store
		// when one is wired. A store error (corrupt record, unplannable
		// superset) degrades to the solve path — the daemon keeps recovering
		// on a broken store, it just recovers slower.
		if m.cfg.Plans != nil {
			sol, outcome, err := m.cfg.Plans.Consult(m.ctx, inst, m.cfg.Solve)
			switch {
			case err != nil:
				m.metrics.addPlanError()
				m.logf(KindError, "epoch %d: plan store for %s: %v", epoch, inst.Label(), err)
			case outcome == planstore.OutcomeHit:
				m.metrics.addPlanHit()
				m.logf(KindPlan, "epoch %d: plan for %s served from the plan store in %s",
					epoch, inst.Label(), sol.Runtime)
				return sol, nil
			case outcome == planstore.OutcomeFallback:
				m.metrics.addPlanFallback()
				m.logf(KindPlan, "epoch %d: plan for %s projected from a precompiled superset plan and repaired in %s",
					epoch, inst.Label(), sol.Runtime)
				return sol, nil
			default:
				m.metrics.addPlanMiss()
			}
		}
		return m.cfg.Solve(inst.Problem)
	}
	sol, err := inst.SolveResidual(demoted, m.cfg.Solve)
	if err != nil {
		// The residual is an optimization; fall back to the full solve.
		m.logf(KindError, "epoch %d: residual for %s: %v", epoch, inst.Label(), err)
		return m.cfg.Solve(inst.Problem)
	}
	m.logf(KindPlan, "epoch %d: residual re-plan for %s excludes %d unreachable switch(es)",
		epoch, inst.Label(), len(demoted))
	return sol, nil
}

// restoreDomains pushes the ideal configuration back to the domains of the
// returned controllers in one Restorer call, so the domains share the
// driver's worker pool instead of queuing behind each other. Per returned
// controller it then drops the domain's switches from the unreachable set (a
// returned domain deserves fresh attempts) and re-asserts the controller's
// mastership in the network: a recovery adopted after the controller revived
// may have handed its switches away, and a restore that brought back the
// flow entries but not the ownership would leave the mapping non-ideal for
// good.
func (m *Medic) restoreDomains(epoch uint64, recovered []int) {
	var (
		ctrls    []int
		switches []topo.NodeID
	)
	for _, j := range recovered {
		if j < 0 || j >= len(m.cfg.Dep.Controllers) {
			m.logf(KindError, "epoch %d: recovery of unknown controller %d", epoch, j)
			continue
		}
		ctrls = append(ctrls, j)
		switches = append(switches, m.cfg.Dep.Controllers[j].Domain...)
	}
	if len(ctrls) == 0 {
		return
	}
	start := time.Now()
	rep, err := m.cfg.Restorer(m.cfg.Addrs, m.cfg.Flows, switches, m.pushOpts(epoch))
	m.metrics.restore.observe(time.Since(start))
	if err != nil {
		m.logf(KindError, "epoch %d: fail-back for controller(s) %v: %v", epoch, ctrls, err)
		return
	}
	acked := make(map[topo.NodeID]int, len(rep.Outcomes))
	for _, out := range rep.Outcomes {
		acked[out.Switch] += out.FlowModsAcked
	}
	failed := make(map[topo.NodeID]bool, len(rep.Failed))
	for _, sw := range rep.Failed {
		failed[sw] = true
	}
	for _, j := range ctrls {
		mods, lost := 0, 0
		for _, sw := range m.cfg.Dep.Controllers[j].Domain {
			mods += acked[sw]
			if failed[sw] {
				m.cur.Unreachable = setAdd(m.cur.Unreachable, sw)
				lost++
			} else {
				m.cur.Unreachable, _ = setDel(m.cur.Unreachable, sw)
			}
		}
		m.cur.Snap.Restores++
		if m.cfg.Net != nil {
			m.cfg.Net.RehomeDomain(j)
		}
		m.metrics.addRestore()
		m.logf(KindRestore, "epoch %d: controller %d returned: %d flow-mods restored to its domain, %d switch(es) unreachable",
			epoch, j, mods, lost)
	}
}

// setUnconverged marks the current failure set as lacking a pushed plan.
func (m *Medic) setUnconverged(why string) {
	snap := &m.cur.Snap
	snap.Converged, snap.Ideal, snap.Label, snap.UpdatedAt = false, false, why, time.Now()
}
