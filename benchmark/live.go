package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/medic"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// episodeTimeout is how long one half of an episode (fail → converged, or
// revive → failed back) may take before the operation counts as failed.
const episodeTimeout = 10 * time.Second

// refPlan is the reference output for one failure set: a fresh core.PM solve
// of the instance Context.Build compiles for it.
type refPlan struct {
	set     []int
	label   string
	inst    *scenario.Instance
	sol     *core.Solution
	mapping []medic.MappingEntry
}

// liveRunner drives both live workloads: the full daemon stack (25 switch
// agents on loopback TCP, medic with a snapshot+WAL store) and one closed-loop
// driver that fails a controller set, waits for the daemon to converge,
// checks the result, revives the set, and waits for fail-back.
//
// react injects detector events straight into the medic's channel, so the
// episode is compile → plan → push → adopt → WAL. wan adds the monitor
// detector over echo endpoints and dials every push through the chaos
// transport (per-message delay, rare resets and dial failures), so the
// episode is detect → plan → push-with-retries → adopt.
type liveRunner struct {
	cfg config
	wan bool

	dep    *topo.Deployment
	flows  *flow.Set
	net    *sdnsim.Network
	agents map[topo.NodeID]*sdnsim.Agent
	echos  []*openflow.EchoServer
	mon    *monitor.Monitor
	wal    *store.Store
	walDir string
	m      *medic.Medic
	events chan monitor.Event
	push   sdnsim.PushOptions

	plans    []*refPlan
	schedule []int
	ideal    []int
	lastSeq  uint64
	evSeq    uint64
	episode  atomic.Int64

	// Tracing state. The hooks are installed only in a traced run and record
	// only while tr holds a tracer (the second half of the traced window).
	tr     atomic.Pointer[tracer]
	parent atomic.Int64
	mu     sync.Mutex
	hook   hookTotals
}

// hookTotals accumulates what the wrapped Config hooks saw during the traced
// window.
type hookTotals struct {
	episodes   int
	fsyncs     uint64
	pushes     int
	flowMods   int
	attempts   int
	switches   int
	retries    int
	demoted    int
	statusUs   []float64
	probeUs    []float64
	probeFirst time.Time
	probeLast  time.Time
	chaosOps   int64
	chaosBytes int64
}

func (l *liveRunner) Setup() (err error) {
	if l.dep, err = topo.ATT(); err != nil {
		return err
	}
	if l.flows, err = flow.Generate(l.dep.Graph, flow.Options{}); err != nil {
		return err
	}
	if l.net, err = sdnsim.New(l.dep, l.flows); err != nil {
		return err
	}
	l.agents = make(map[topo.NodeID]*sdnsim.Agent, len(l.net.Switches))
	for _, sw := range l.net.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			return err
		}
		l.agents[sw.ID] = a
	}
	if l.walDir, err = os.MkdirTemp(l.cfg.OutDir, "wal-*"); err != nil {
		return err
	}
	// wan keeps the WAL durable (a dozen fsyncs vanish in a 450 ms episode).
	// react does not: there the same fsyncs are a third of the episode, and
	// their cost on the sandbox's disk drifted between 0.1 and 1 ms from one
	// run to the next, which put the recovery time's spread over ten seeds at
	// 12-23 %. react still writes every record; what a fsync costs is
	// reported per layer: react's traced run is durable again, so its
	// breakdown (medic.other_ms, store.fsyncs_per_episode, store.append_us)
	// prices them.
	if l.wal, err = store.Open(l.walDir, store.Options{NoSync: !l.wan && !l.cfg.Trace}); err != nil {
		return err
	}

	l.push = sdnsim.PushOptions{Seed: l.cfg.Seed}
	if l.wan {
		d := chaos.NewDialer(chaos.Config{
			Seed:         l.cfg.Seed,
			Latency:      500 * time.Microsecond,
			Jitter:       500 * time.Microsecond,
			ResetProb:    0.0002,
			DialFailProb: 0.002,
		})
		l.push.Dial = l.chaosDial(d)
		l.push.MaxAttempts = 10
		l.push.BaseBackoff = 5 * time.Millisecond
		l.push.MaxBackoff = 50 * time.Millisecond
	}
	mcfg := medic.Config{
		Dep:   l.dep,
		Flows: l.flows,
		Addrs: sdnsim.AgentAddrs(l.agents),
		Net:   l.net,
		Push:  l.push,
		Store: l.wal,
	}
	if l.cfg.Trace {
		mcfg.Solve = l.tracedSolve
		mcfg.Pusher = l.tracedPush
		mcfg.Restorer = l.tracedRestore
	}
	if l.m, err = medic.New(mcfg); err != nil {
		return err
	}

	if !l.wan {
		// Same depth as the detector's own event queue.
		l.events = make(chan monitor.Event, 16)
		l.m.Start(l.events)
		return nil
	}
	l.echos = make([]*openflow.EchoServer, len(l.net.Controllers))
	targets := make([]monitor.Target, len(l.net.Controllers))
	for j := range l.net.Controllers {
		if l.echos[j], err = openflow.ServeEcho("127.0.0.1:0"); err != nil {
			return err
		}
		targets[j] = monitor.Target{ID: j, Name: fmt.Sprintf("controller-%d", j), Addr: l.echos[j].Addr()}
	}
	echos := l.echos
	l.net.OnControllerChange = func(j int, alive bool) { echos[j].SetAlive(alive) }
	mon := monitor.Config{
		Interval:  10 * time.Millisecond,
		Threshold: 2,
		Debounce:  10 * time.Millisecond,
		Seed:      l.cfg.Seed,
	}
	if l.cfg.Trace {
		mon.Probe = l.tracedProbe(monitor.ProbeVia(openflow.DialTimeout))
	}
	l.mon = monitor.New(targets, mon)
	l.mon.Start()
	l.m.Start(l.mon.Events())
	return nil
}

func (l *liveRunner) Close() {
	if l.mon != nil {
		l.mon.Stop()
	}
	if l.m != nil {
		l.m.Stop()
	}
	for _, a := range l.agents {
		_ = a.Close()
	}
	for _, e := range l.echos {
		if e != nil {
			_ = e.Close()
		}
	}
	if l.wal != nil {
		_ = l.wal.Close()
	}
	if l.walDir != "" {
		_ = os.RemoveAll(l.walDir)
	}
	*l = liveRunner{cfg: l.cfg, wan: l.wan}
}

// Prepare solves every failure set C(6,1..3) afresh: the converged mapping
// of each episode must equal these, and their hash is the result digest.
func (l *liveRunner) Prepare() (string, error) {
	ctx, err := scenario.NewContext(l.dep, l.flows)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, set := range scenario.CombinationsUpTo(len(l.dep.Controllers), 3) {
		inst, err := ctx.Build(set)
		if err != nil {
			return "", err
		}
		sol, err := core.PM(inst.Problem)
		if err != nil {
			return "", err
		}
		rep, err := inst.Evaluate(sol)
		if err != nil {
			return "", err
		}
		p := &refPlan{set: set, label: inst.Label(), inst: inst, sol: sol}
		for i, jj := range sol.SwitchController {
			e := medic.MappingEntry{Switch: inst.Switches[i], Controller: -1}
			if jj >= 0 {
				e.Controller = inst.Active[jj]
			}
			p.mapping = append(p.mapping, e)
		}
		fmt.Fprintf(h, "%v %v %v %d %d %d\n", set, p.mapping, sol.Active, rep.MinProg, rep.TotalProg, rep.RecoveredFlows)
		l.plans = append(l.plans, p)
	}
	// react rotates through all 41 sets in seeded order (a 10 s window holds
	// about a dozen passes). A wan episode takes most of a second, so wan
	// rotates through two sets, one single failure and the headline double
	// failure {3,4}: every window then times the same inputs several times.
	if l.wan {
		for i, p := range l.plans {
			if slices.Equal(p.set, []int{4}) || slices.Equal(p.set, []int{3, 4}) {
				l.schedule = append(l.schedule, i)
			}
		}
	} else {
		l.schedule = make([]int, len(l.plans))
		for i := range l.schedule {
			l.schedule[i] = i
		}
	}
	rand.New(rand.NewSource(l.cfg.Seed)).Shuffle(len(l.schedule), func(a, b int) {
		l.schedule[a], l.schedule[b] = l.schedule[b], l.schedule[a]
	})
	l.ideal = l.net.MappingSnapshot()
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

func (l *liveRunner) Cycle() int { return len(l.schedule) }

// Op is one episode: fail a set, await convergence, check, revive, await
// fail-back, check.
func (l *liveRunner) Op(rec *recorder, i int) error {
	p := l.plans[l.schedule[i%len(l.schedule)]]
	id := l.episode.Add(1)
	tr := rec.tr
	l.tr.Store(tr)
	defer l.tr.Store(nil)
	fsyncs0 := l.wal.Fsyncs()

	ep := tr.begin("episode", -1, id)
	rcv := tr.begin("recovery", ep, id)
	react := tr.begin("medic.react", rcv, id)
	l.parent.Store(int64(react))

	t0, err := l.inject(p.set, true)
	if err != nil {
		return err
	}
	detectAt, convergedAt, err := l.await(medic.KindConverged, "converged on "+p.label+":", false)
	if err != nil {
		l.revive(p.set)
		return fmt.Errorf("episode %d %s: %w", id, p.label, err)
	}
	tr.add(l.detectSpan(), rcv, id, t0, detectAt)
	tr.setBounds(react, detectAt, convergedAt)
	tr.setBounds(rcv, t0, convergedAt)
	checkErr := l.checkRecovered(p)

	back := tr.begin("failback", ep, id)
	backReact := tr.begin("medic.failback", back, id)
	l.parent.Store(int64(backReact))
	t1, err := l.inject(p.set, false)
	if err != nil {
		return err
	}
	detectAt2, failbackAt, err := l.await(medic.KindFailback, "", true)
	if err != nil {
		return fmt.Errorf("episode %d %s fail-back: %w", id, p.label, err)
	}
	tr.add(l.detectSpan()+"_back", back, id, t1, detectAt2)
	tr.setBounds(backReact, detectAt2, failbackAt)
	tr.setBounds(back, t1, failbackAt)
	tr.end(ep)
	if checkErr == nil {
		checkErr = l.checkRestored(p)
	}
	if checkErr != nil {
		return fmt.Errorf("episode %d %s: %w", id, p.label, checkErr)
	}

	rec.observe("op", convergedAt.Sub(t0))
	rec.observe("op2", failbackAt.Sub(t1))
	rec.units++
	if tr != nil {
		l.mu.Lock()
		l.hook.episodes++
		l.hook.fsyncs += l.wal.Fsyncs() - fsyncs0
		l.mu.Unlock()
	}
	return nil
}

// inject kills (fail) or revives the set and returns the instant the daemon
// could first have known. react tells the medic directly; wan flips the echo
// endpoints through the network's controller-change hook and lets the
// detector find out.
func (l *liveRunner) inject(set []int, fail bool) (time.Time, error) {
	t0 := time.Now()
	for _, j := range set {
		var err error
		if fail {
			err = l.net.StopController(j)
		} else {
			err = l.net.StartController(j)
		}
		if err != nil {
			return t0, err
		}
	}
	if l.wan {
		return t0, nil
	}
	l.evSeq++
	ev := monitor.Event{Seq: l.evSeq}
	if fail {
		ev.Failed = set
	} else {
		ev.Recovered = set
	}
	t0 = time.Now()
	ev.At = t0
	l.events <- ev
	return t0, nil
}

// detectSpan names the interval from injection to the daemon's detect log
// entry: the detector's latency on wan, the medic's event intake on react.
func (l *liveRunner) detectSpan() string {
	if l.wan {
		return "monitor.detect"
	}
	return "medic.apply"
}

// revive is the best-effort clean-up after a failed recovery half, so the
// next episode starts from the ideal state if the daemon is still alive.
func (l *liveRunner) revive(set []int) {
	if _, err := l.inject(set, false); err == nil {
		_, _, _ = l.await(medic.KindFailback, "", true)
	}
}

// await polls Status at 1 ms until the event log holds a new entry of the
// given kind containing text and the status is (not) ideal, and returns the
// timestamps of the first new detect entry and of that entry: times come
// from the daemon's own log, not from when the poll noticed. It matches on
// the log entry rather than on Converged && Epoch == N because a status can
// carry epoch N with the previous epoch's converged flag (ROADMAP item 1).
func (l *liveRunner) await(kind medic.Kind, text string, ideal bool) (detectAt, at time.Time, err error) {
	deadline := time.Now().Add(episodeTimeout)
	traced := l.tr.Load() != nil
	for {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		st := l.m.Status()
		if traced {
			us := time.Since(t0).Seconds() * 1e6
			l.mu.Lock()
			l.hook.statusUs = append(l.hook.statusUs, us)
			l.mu.Unlock()
		}
		if st.Ideal == ideal {
			for i := len(st.Events) - 1; i >= 0 && st.Events[i].Seq > l.lastSeq; i-- {
				e := st.Events[i]
				if e.Kind != kind || !strings.Contains(e.Msg, text) {
					continue
				}
				for _, d := range st.Events {
					if d.Seq > l.lastSeq && d.Kind == medic.KindDetect {
						detectAt = d.At
						break
					}
				}
				l.lastSeq = e.Seq
				return detectAt, e.At, nil
			}
		}
		if time.Now().After(deadline) {
			var tail []string
			for _, e := range st.Events {
				if e.Seq > l.lastSeq {
					tail = append(tail, string(e.Kind)+": "+e.Msg)
				}
			}
			return time.Time{}, time.Time{}, fmt.Errorf("no %q entry within %v (ideal=%v converged=%v failed=%v; log since: %s)",
				kind, episodeTimeout, st.Ideal, st.Converged, st.Failed, strings.Join(tail, " | "))
		}
		time.Sleep(time.Millisecond)
	}
}

// checkRecovered holds the converged state against the reference plan: the
// daemon's mapping, the simulator's ownership, and a sample of the agents'
// flow-table rows.
func (l *liveRunner) checkRecovered(p *refPlan) error {
	st := l.m.Status()
	if !st.Converged || st.Ideal {
		return fmt.Errorf("status after convergence: converged=%v ideal=%v", st.Converged, st.Ideal)
	}
	if len(st.Unreachable) > 0 {
		return fmt.Errorf("switches %v were demoted", st.Unreachable)
	}
	if len(st.Mapping) != len(p.mapping) {
		return fmt.Errorf("mapping has %d rows, fresh PM solve has %d", len(st.Mapping), len(p.mapping))
	}
	for i, e := range st.Mapping {
		if e != p.mapping[i] {
			return fmt.Errorf("switch %d mapped to controller %d, fresh PM solve says %d", e.Switch, e.Controller, p.mapping[i].Controller)
		}
		if got := st.NetworkMapping[e.Switch]; got != e.Controller {
			return fmt.Errorf("network owner of switch %d is %d, plan says %d", e.Switch, got, e.Controller)
		}
	}
	return l.checkRows(p, false)
}

// checkRestored holds the state after fail-back against the ideal one.
func (l *liveRunner) checkRestored(p *refPlan) error {
	st := l.m.Status()
	if !st.Converged || !st.Ideal || len(st.Failed) != 0 {
		return fmt.Errorf("status after fail-back: converged=%v ideal=%v failed=%v", st.Converged, st.Ideal, st.Failed)
	}
	for sw, want := range l.ideal {
		if st.NetworkMapping[sw] != want {
			return fmt.Errorf("after fail-back switch %d is owned by %d, ideal is %d", sw, st.NetworkMapping[sw], want)
		}
	}
	return l.checkRows(p, true)
}

// checkRows samples every seventh eligible pair of the plan (a different
// residue each episode): after recovery a mapped switch holds an entry
// exactly for its active pairs; after fail-back every pair's entry is back.
func (l *liveRunner) checkRows(p *refPlan, restored bool) error {
	pairs := p.inst.Problem.Pairs
	for k := int(l.episode.Load() % 7); k < len(pairs); k += 7 {
		pr := pairs[k]
		want := true
		if !restored {
			if p.sol.SwitchController[pr.Switch] < 0 {
				continue
			}
			want = p.sol.Active[k]
		}
		sw := p.inst.Switches[pr.Switch]
		id := p.inst.FlowIDs[pr.Flow]
		if _, has := l.agents[sw].Entry(id); has != want {
			return fmt.Errorf("switch %d flow %d: entry present=%v, want %v (restored=%v)", sw, id, has, want, restored)
		}
	}
	return nil
}

// chaosDial dials through the fault-injecting transport; in a traced run a
// counting layer sits between it and the openflow framing.
func (l *liveRunner) chaosDial(d *chaos.Dialer) sdnsim.DialFunc {
	return func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		t, err := d.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		var rwc io.ReadWriteCloser = t
		if l.cfg.Trace {
			rwc = &countingTransport{Transport: t, l: l}
		}
		c := openflow.NewConn(rwc)
		c.SetIOTimeout(timeout)
		if err := c.Handshake(); err != nil {
			_ = t.Close()
			return nil, err
		}
		c.SetIOTimeout(0)
		return c, nil
	}
}

// countingTransport counts the reads and writes the chaos transport delays;
// each one is a sleep on the critical path. Embedding forwards Close and the
// deadline setters.
type countingTransport struct {
	*chaos.Transport
	l *liveRunner
}

func (c *countingTransport) Read(p []byte) (int, error) {
	n, err := c.Transport.Read(p)
	c.l.countChaos(n)
	return n, err
}

func (c *countingTransport) Write(p []byte) (int, error) {
	n, err := c.Transport.Write(p)
	c.l.countChaos(n)
	return n, err
}

func (l *liveRunner) countChaos(n int) {
	if l.tr.Load() == nil {
		return
	}
	l.mu.Lock()
	l.hook.chaosOps++
	l.hook.chaosBytes += int64(n)
	l.mu.Unlock()
}

// The three wrapped Config hooks: each is the production default with a span
// around it.

func (l *liveRunner) tracedSolve(p *core.Problem) (*core.Solution, error) {
	tr := l.tr.Load()
	s := tr.begin("medic.plan", int(l.parent.Load()), l.episode.Load())
	defer tr.end(s)
	return core.PM(p)
}

func (l *liveRunner) tracedPush(addrs map[topo.NodeID]string, flows *flow.Set, inst *scenario.Instance,
	sol *core.Solution, opts sdnsim.PushOptions) (*sdnsim.RecoveryReport, error) {
	tr := l.tr.Load()
	s := tr.begin("medic.push", int(l.parent.Load()), l.episode.Load())
	rep, err := sdnsim.PushRecoveryResilient(addrs, flows, inst, sol, opts)
	tr.end(s)
	if tr != nil && err == nil {
		l.mu.Lock()
		l.hook.pushes++
		l.hook.flowMods += rep.FlowModsAcked
		l.hook.demoted += len(rep.Demoted)
		for _, o := range rep.Outcomes {
			if o.Attempts > 0 {
				l.hook.switches++
				l.hook.attempts += o.Attempts
				l.hook.retries += o.Attempts - 1
			}
		}
		l.mu.Unlock()
	}
	return rep, err
}

func (l *liveRunner) tracedRestore(addrs map[topo.NodeID]string, flows *flow.Set, switches []topo.NodeID,
	opts sdnsim.PushOptions) (*sdnsim.RestoreReport, error) {
	tr := l.tr.Load()
	s := tr.begin("medic.restore", int(l.parent.Load()), l.episode.Load())
	defer tr.end(s)
	return sdnsim.RestoreIdeal(addrs, flows, switches, opts)
}

func (l *liveRunner) tracedProbe(base monitor.ProbeFunc) monitor.ProbeFunc {
	return func(addr string, timeout time.Duration) error {
		if l.tr.Load() == nil {
			return base(addr, timeout)
		}
		t0 := time.Now()
		err := base(addr, timeout)
		now := time.Now()
		l.mu.Lock()
		l.hook.probeUs = append(l.hook.probeUs, now.Sub(t0).Seconds()*1e6)
		if l.hook.probeFirst.IsZero() {
			l.hook.probeFirst = t0
		}
		l.hook.probeLast = now
		l.mu.Unlock()
		return err
	}
}
