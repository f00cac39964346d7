package sdnsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/openflow"
	"pmedic/internal/par"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// DialFunc opens a control channel to a switch agent. The default dials
// plain TCP; tests substitute a chaos-wrapped dialer to inject control-plane
// faults under the driver.
type DialFunc func(addr string, timeout time.Duration) (*openflow.Conn, error)

func defaultDial(addr string, timeout time.Duration) (*openflow.Conn, error) {
	return openflow.DialTimeout(addr, timeout)
}

// PushOptions tunes the resilient recovery driver. The zero value selects
// the defaults noted per field.
type PushOptions struct {
	// MaxAttempts bounds the pushes tried per switch per round (default 4).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between attempts (defaults 25ms and 400ms); a seeded jitter of up to
	// one BaseBackoff is added so concurrent retries decorrelate.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DialTimeout bounds connect + handshake per attempt (default 2s);
	// IOTimeout bounds every read and write on an open channel (default 2s).
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// Seed drives the retry jitter deterministically (per-switch streams are
	// derived from it).
	Seed int64
	// GenerationID is the first Master generation claimed (default 1). The
	// driver raises it automatically when an agent reports a stale claim.
	GenerationID uint64
	// GenerationLimit, when nonzero, caps that stale-claim
	// resynchronization: a resync that would have to claim past the limit
	// fails with ErrFenced instead of retrying. The medic sets it to the
	// top of the epoch's generation stride, so a push signed by epoch E can
	// never steal a switch back from a claim made by epoch E+1 — the
	// fencing that makes leader failover safe.
	GenerationLimit uint64
	// Dial replaces the transport (default: plain TCP via openflow).
	Dial DialFunc
	// Sessions, when set, is the standby-session set the drivers push on: an
	// attempt takes the switch's idle session instead of dialling and hands
	// it back once acknowledged. Nil dials per use. The set's owner (the
	// medic) warms and closes it.
	Sessions *Sessions
}

// pushConcurrency caps the switches the drivers push, restore, fence or dial
// in parallel.
const pushConcurrency = 8

func (o PushOptions) withDefaults() PushOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 400 * time.Millisecond
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 2 * time.Second
	}
	if o.GenerationID == 0 {
		o.GenerationID = 1
	}
	if o.Dial == nil {
		o.Dial = defaultDial
	}
	return o
}

// PushStatus classifies a switch's outcome in a resilient push.
type PushStatus int

// Push outcomes.
const (
	// PushLegacyPlanned: the plan left the whole switch in legacy mode;
	// nothing was pushed.
	PushLegacyPlanned PushStatus = iota + 1
	// PushApplied: the switch acknowledged what it was sent (switchPush).
	PushApplied
	// PushDemoted: the switch stayed unreachable through every retry and was
	// demoted to legacy mode.
	PushDemoted
)

// String renders the status.
func (s PushStatus) String() string {
	switch s {
	case PushLegacyPlanned:
		return "legacy-planned"
	case PushApplied:
		return "applied"
	case PushDemoted:
		return "demoted"
	default:
		return fmt.Sprintf("sdnsim.PushStatus(%d)", int(s))
	}
}

// SwitchOutcome reports how one switch fared under a push: a recovery
// (PushRecoveryResilient) or a fail-back (RestoreIdeal).
type SwitchOutcome struct {
	// Switch is the switch's node ID; Index its position in the driver's
	// input — the instance's switch order, or the switches to restore.
	Switch topo.NodeID
	Index  int
	Status PushStatus
	// Attempts counts push sessions tried, the free redial of a standby
	// session found dead included.
	Attempts int
	// FlowModsAcked counts flow-mods confirmed behind a barrier.
	FlowModsAcked int
	// Full marks a switch pushed its whole desired table, not its
	// difference: the standby set could not vouch for its table, or it
	// answered with a new boot nonce.
	Full bool
	// Dirty marks a demoted switch that may hold partial state:
	// some flow-mods were sent on a connection that died before its barrier
	// confirmed them.
	Dirty bool
	// Elapsed is the wall time the switch's push sessions took, from taking
	// the switch's session (a dial only when none stood by) to final barrier
	// or demotion (backoff included).
	Elapsed time.Duration
	// Err is the last error of a demoted switch.
	Err error
}

// RecoveryReport is the structured result of a resilient push: what the
// network accepted, and how hard it was to get there.
type RecoveryReport struct {
	// Outcomes has one entry per offline switch, in instance switch order.
	Outcomes []SwitchOutcome
	// FlowModsAcked totals the acknowledged flow-mods.
	FlowModsAcked int
	// Demoted lists the switches demoted to legacy, ascending.
	Demoted []topo.NodeID
}

// switchPush is one switch's push: the flow-mods sent behind its mastership
// claim. build writes the switch's desired table as flow-mods: in full given
// no record, else only those that change the table the record describes.
// mods is the full table (diff false) or, when the standby set vouched for
// the switch at boot nonce nonce, the difference (diff true); a switch that
// answers with another nonce is sent build(nil) as well. A fence builds
// nothing and sends no mods.
type switchPush struct {
	index int
	sw    topo.NodeID
	mods  []openflow.FlowMod
	build func(*table) []openflow.FlowMod
	diff  bool
	nonce uint64
	// vouches marks a fail-back: its full push leaves every steady-state
	// entry in place, so once acknowledged the set vouches for the switch.
	vouches bool
}

// against sets the push's mods: the difference against set's record of the
// switch when set vouches for it, else the full table.
func (sp *switchPush) against(set *Sessions) {
	if t, ok := set.vouched(sp.sw); ok {
		sp.diff, sp.nonce, sp.mods = true, t.nonce, sp.build(&t)
		return
	}
	sp.mods = sp.build(nil)
}

// buildPushPlan compiles a switch-mapping solution into per-switch pushes,
// in instance switch order, each against set's record (recoveryMods); a nil
// set makes every push the full assert. Unmapped switches are absent: nobody
// manages them, so nothing is pushed. It is the one translation from a
// recovery to flow tables, used on the wire (PushRecoveryResilient) and in
// process (Network.ApplyRecovery, always in full).
func buildPushPlan(flows *flow.Set, inst *scenario.Instance, sol *core.Solution, set *Sessions) ([]switchPush, error) {
	if sol.PairController != nil {
		return nil, errors.New("sdnsim: flow-level solutions need a middle layer, not a switch mapping")
	}
	var plan []switchPush
	for i, swID := range inst.Switches {
		if sol.SwitchController[i] < 0 {
			continue
		}
		sp := switchPush{index: i, sw: swID, build: func(t *table) []openflow.FlowMod {
			return recoveryMods(flows, inst, sol, i, t)
		}}
		sp.against(set)
		plan = append(plan, sp)
	}
	return plan, nil
}

// recoveryMods is the instance's switch i under sol: per pair at it, in flow
// order, a FlowAdd where the flow is in SDN mode and a FlowDelete where it is
// legacy. Given t, the record of the switch's table, it keeps only the mods
// that change it: an add where the steady-state entry was deleted, a delete
// where it was not. An offline flow with no pair at the switch (p̄ < 2 there)
// gets no message and keeps its entry.
func recoveryMods(flows *flow.Set, inst *scenario.Instance, sol *core.Solution, i int, t *table) []openflow.FlowMod {
	p, sw := inst.Problem, inst.Switches[i]
	var mods []openflow.FlowMod
	for k, hi := p.SwitchRun(i); k < hi; k++ {
		f := &flows.Flows[inst.FlowIDs[p.Pairs[k].Flow]]
		switch {
		case t != nil && t.holds(f.ID) == sol.Active[k]:
		case sol.Active[k]:
			mods = append(mods, addMod(f, sw))
		default:
			mods = append(mods, deleteMod(f))
		}
	}
	return mods
}

// addMod asserts a flow's steady-state SDN entry at sw, the one New installs:
// forward to the next node on the flow's path after sw.
func addMod(f *flow.Flow, sw topo.NodeID) openflow.FlowMod {
	next := f.Dst
	for h := 0; h+1 < len(f.Path); h++ {
		if f.Path[h] == sw {
			next = f.Path[h+1]
			break
		}
	}
	return openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match:    openflow.Match{FlowID: uint32(f.ID), Src: uint32(f.Src), Dst: uint32(f.Dst)},
		NextHop:  uint32(next),
	}
}

// deleteMod removes a flow's entry at a switch left in legacy mode for it.
func deleteMod(f *flow.Flow) openflow.FlowMod {
	return openflow.FlowMod{
		Command: openflow.FlowDelete,
		Match:   openflow.Match{FlowID: uint32(f.ID), Src: uint32(f.Src), Dst: uint32(f.Dst)},
	}
}

// session is what one push session did: the flow-mods its barrier confirmed,
// the boot nonce the switch's role reply carried, and whether the switch's
// whole desired table was sent. sentAny is the partial-state marker: mods
// left on a connection whose barrier never confirmed them (a failed flush may
// have delivered any prefix of the batch, cut mid-frame; a refused claim
// applied nothing). lost reports an attempt that failed on a reused session
// before any answer to its claim arrived: the session died while it stood
// by, which says nothing about the switch.
type session struct {
	acked         int
	nonce         uint64
	full          bool
	sentAny, lost bool
}

// pushOnce performs one complete push session of sp against addr, on the
// switch's standby session when opts.Sessions holds one and on a fresh dial
// and Hello handshake otherwise. From there it costs one transport write and
// one round trip whatever len(sp.mods) is: the mastership claim under gen,
// every mod and the barrier leave in a single flush, then the role reply (the
// liveness proof) and the barrier reply are awaited by XID — frames an
// earlier use left behind carry older XIDs and are skipped. Sending the mods
// before the claim is answered is safe because the agent, not the driver,
// enforces the fence: it discards the mods of a connection whose claim it
// refused, and it judges every claim, first on its connection or not, against
// the newest generation it has seen. A difference answered with a boot nonce
// other than the one the set vouched at means the switch restarted under it:
// the set stops vouching, and the full table follows on the same session
// behind a second barrier, one round trip more. Only a fully acknowledged
// session goes back to stand by; any error closes it.
func pushOnce(opts PushOptions, addr string, gen uint64, sp switchPush) (s session, err error) {
	conn, reused, err := opts.Sessions.acquire(addr, opts)
	if err != nil {
		return s, err
	}
	answered := false
	defer func() {
		s.lost = err != nil && reused && !answered
		opts.Sessions.release(addr, conn, err == nil, s.lost)
	}()
	conn.SetIOTimeout(opts.IOTimeout)
	roleXID, err := conn.Queue(openflow.RoleRequest{Role: openflow.RoleMaster, GenerationID: gen})
	if err != nil {
		return s, err
	}
	barrierXID, err := queueBatch(conn, sp.mods)
	if err != nil {
		return s, err
	}
	s.full, s.sentAny = !sp.diff, len(sp.mods) > 0
	if err := conn.Flush(); err != nil {
		return s, err
	}
	msg, _, err := conn.RecvXID(roleXID)
	if err != nil {
		// An error the switch sent is an answer; one the transport raised is
		// not.
		answered = errors.As(err, new(*openflow.RemoteError))
		if _, stale := staleGeneration(err); stale {
			s.sentAny = false
		}
		return s, err
	}
	answered = true
	reply, ok := msg.(openflow.RoleReply)
	if !ok {
		return s, fmt.Errorf("sdnsim: push %s: unexpected %v to role request", addr, msg.MsgType())
	}
	s.nonce, s.acked = reply.Nonce, len(sp.mods)
	if sp.diff && reply.Nonce != sp.nonce {
		opts.Sessions.forget(sp.sw)
		full := sp.build(nil)
		if barrierXID, err = queueBatch(conn, full); err != nil {
			return s, err
		}
		s.full, s.sentAny, s.acked = true, s.sentAny || len(full) > 0, s.acked+len(full)
		if err := conn.Flush(); err != nil {
			return s, err
		}
	}
	msg, _, err = conn.RecvXID(barrierXID)
	if err != nil {
		return s, err
	}
	if _, ok := msg.(openflow.BarrierReply); !ok {
		return s, fmt.Errorf("sdnsim: push %s: unexpected %v to barrier", addr, msg.MsgType())
	}
	s.sentAny = false
	return s, nil
}

// queueBatch queues mods and the barrier that confirms them.
func queueBatch(conn *openflow.Conn, mods []openflow.FlowMod) (barrierXID uint32, err error) {
	for _, m := range mods {
		if _, err := conn.Queue(m); err != nil {
			return 0, err
		}
	}
	return conn.Queue(openflow.BarrierRequest{})
}

// staleGeneration reports whether err is an agent's refusal of a stale
// mastership claim, and the generation the agent holds.
func staleGeneration(err error) (gen uint64, ok bool) {
	var re *openflow.RemoteError
	if errors.As(err, &re) {
		return re.StaleGeneration()
	}
	return 0, false
}

// PushRecoveryResilient delivers a switch-mapping recovery over a faulty
// control channel, degrading gracefully instead of failing atomically: every
// mapped switch is pushed concurrently (role, flow-mods, barrier, all
// XID-matched) — the flow-mods that change its table when opts.Sessions
// vouches for it, else its whole desired table (buildPushPlan) — with
// transient faults retried under capped exponential
// backoff plus seeded jitter, and a switch that stays unreachable through
// every retry is demoted — reported, not fatal. Planning around the demoted
// switches is the caller's (the medic's reconcile step).
//
// addrs maps each offline switch to its agent's address (see AgentAddrs); a
// mapped switch without an address is treated as permanently unreachable. err
// is reserved for structural failures (a flow-level solution), never for
// control-channel faults.
func PushRecoveryResilient(
	addrs map[topo.NodeID]string,
	flows *flow.Set,
	inst *scenario.Instance,
	sol *core.Solution,
	opts PushOptions,
) (*RecoveryReport, error) {
	opts = opts.withDefaults()
	work, err := buildPushPlan(flows, inst, sol, opts.Sessions)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Outcomes: make([]SwitchOutcome, len(inst.Switches))}
	for i, swID := range inst.Switches {
		rep.Outcomes[i] = SwitchOutcome{Switch: swID, Index: i, Status: PushLegacyPlanned}
	}
	rep.FlowModsAcked, rep.Demoted = pushRound(addrs, work, opts, rep.Outcomes)
	return rep, nil
}

// pushRound is the one wire round of every driver — a recovery, a fail-back,
// a fencing sweep: it pushes each switch in work concurrently (pushSwitch)
// under one shared generation, starting at opts.GenerationID, and folds the
// result into outs[sp.index]. A switch that stays unreachable ends the round
// PushDemoted with its last error, and Dirty if flow-mods were left
// unconfirmed on it; a switch that acknowledges is PushApplied and clean.
// Each outcome is folded into the standby set's record (Sessions.note). It
// returns the flow-mods acknowledged and the switches demoted, ascending.
func pushRound(addrs map[topo.NodeID]string, work []switchPush, opts PushOptions, outs []SwitchOutcome) (acked int, failed []topo.NodeID) {
	var gen atomic.Uint64
	gen.Store(opts.GenerationID)
	par.For(len(work), pushConcurrency, func(i int) {
		sp := work[i]
		res, dirty, err := pushSwitch(addrs, sp, &gen, opts)
		opts.Sessions.note(sp, res, dirty, err)
		out := &outs[sp.index]
		out.Attempts, out.Elapsed, out.FlowModsAcked, out.Full = res.attempts, res.elapsed, res.mods, res.full
		out.Err, out.Dirty = err, dirty
		out.Status = PushApplied
		if err != nil {
			out.Status = PushDemoted
		}
	})
	for _, sp := range work {
		acked += outs[sp.index].FlowModsAcked
		if outs[sp.index].Status == PushDemoted {
			failed = append(failed, sp.sw)
		}
	}
	slices.Sort(failed)
	return acked, failed
}

// attemptResult carries a worker's bookkeeping out of the retry loop, among
// it the boot nonce acknowledged and whether the whole table was sent.
type attemptResult struct {
	attempts int
	mods     int
	nonce    uint64
	full     bool
	elapsed  time.Duration
}

// pushSwitch drives one switch's retry loop: bounded attempts, capped
// exponential backoff with seeded jitter, and generation resynchronization
// on stale-role errors. A standby session found dead on use is not a fault of
// the switch: that attempt is repeated at once, once, on a fresh dial, with
// no backoff and none of the MaxAttempts budget spent, and everything after
// is the ordinary ladder. Every attempt sends the same mods, so one that is
// acknowledged clears dirty, which reports whether any attempt left flow-mods
// unconfirmed.
func pushSwitch(addrs map[topo.NodeID]string, sp switchPush, gen *atomic.Uint64, opts PushOptions) (res attemptResult, dirty bool, err error) {
	start := time.Now()
	defer func() { res.elapsed = time.Since(start) }()
	addr, ok := addrs[sp.sw]
	if !ok {
		return res, false, fmt.Errorf("%w: %d", ErrAgentMissing, sp.sw)
	}
	var (
		rng       *rand.Rand // seeded on the first backoff; most pushes take none
		redialled bool
		lastErr   error
	)
	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		res.attempts++
		s, err := pushOnce(opts, addr, gen.Load(), sp)
		res.full = res.full || s.full
		if s.sentAny {
			dirty = true
		}
		if err == nil {
			res.mods, res.nonce = s.acked, s.nonce
			return res, false, nil
		}
		lastErr = err
		if s.lost && !redialled {
			redialled = true
			attempt--
			continue
		}
		if g, ok := staleGeneration(err); ok {
			// Resyncing past the limit would claim into a newer epoch's
			// generation range: this push has been fenced by a newer
			// leader (or a newer epoch of our own daemon) and must not
			// steal the switch back.
			if opts.GenerationLimit != 0 && int64(g+1-opts.GenerationLimit) > 0 {
				return res, dirty, fmt.Errorf("%w: switch %d holds generation %d, epoch limit %d",
					ErrFenced, sp.sw, g, opts.GenerationLimit)
			}
			// Lift the driver's generation past the switch's and retry
			// immediately: the claim itself was fine, only its epoch was
			// behind.
			for {
				curGen := gen.Load()
				if int64(g-curGen) < 0 || gen.CompareAndSwap(curGen, g+1) {
					break
				}
			}
			continue
		}
		if attempt < opts.MaxAttempts {
			if rng == nil {
				rng = rand.New(rand.NewSource(opts.Seed ^ (0x5DEECE66D * int64(sp.sw+1))))
			}
			time.Sleep(backoff(opts, rng, attempt))
		}
	}
	return res, dirty, lastErr
}

// backoff returns the sleep before retry #attempt: BaseBackoff doubled per
// attempt, capped at MaxBackoff, plus up to one BaseBackoff of jitter.
func backoff(opts PushOptions, rng *rand.Rand, attempt int) time.Duration {
	d := opts.BaseBackoff << (attempt - 1)
	if d > opts.MaxBackoff || d <= 0 {
		d = opts.MaxBackoff
	}
	return d + time.Duration(rng.Int63n(int64(opts.BaseBackoff)))
}
