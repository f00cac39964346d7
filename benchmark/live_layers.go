package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/openflow"
	"pmedic/internal/scenario"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// probeGeneration is far above anything the medic's epochs sign, so the
// direct push probes (which run after the last episode) are never refused as
// stale.
const probeGeneration = 1 << 40

// Layers reduces the traced window's spans and hook counters, then probes
// the layers under the daemon by direct call: the openflow codec and channel
// against one agent, the push and restore drivers on a fixed plan, ownership
// adoption, the WAL on a scratch directory, and case compile + PM solve for
// the share-of-recovery statement.
func (l *liveRunner) Layers(rec *recorder, spans []span) error {
	L := rec.layers
	L["medic.react_ms_p50"] = median(durations(spans, "medic.react")) * 1e3
	L["medic.plan_us"] = median(durations(spans, "medic.plan")) * 1e6
	L["medic.push_ms"] = median(durations(spans, "medic.push")) * 1e3
	L["medic.restore_ms"] = median(durations(spans, "medic.restore")) * 1e3
	L["medic.other_ms"] = median(selfTimes(spans, "medic.react")) * 1e3
	L["monitor.detect_ms_p50"] = median(durations(spans, "monitor.detect")) * 1e3
	for _, name := range []string{"medic.plan", "medic.push", "medic.restore"} {
		if !nested(spans, name) {
			return fmt.Errorf("a %s span lies outside its episode's detect→converged interval", name)
		}
	}

	l.mu.Lock()
	h := l.hook
	l.mu.Unlock()
	if h.episodes > 0 {
		n := float64(h.episodes)
		L["store.fsyncs_per_episode"] = float64(h.fsyncs) / n
		L["sdnsim.flowmods_per_episode"] = float64(h.flowMods) / n
		L["chaos.ops_per_episode"] = float64(h.chaosOps) / n
		L["chaos.bytes_per_episode"] = float64(h.chaosBytes) / n
	}
	if h.switches > 0 {
		L["sdnsim.attempts_per_switch"] = float64(h.attempts) / float64(h.switches)
	}
	L["sdnsim.retries"] = float64(h.retries)
	L["sdnsim.demoted"] = float64(h.demoted)
	L["medic.status_us"] = median(h.statusUs)
	L["monitor.probe_us"] = median(h.probeUs)
	if d := h.probeLast.Sub(h.probeFirst).Seconds(); d > 0 {
		L["monitor.probes_per_s"] = float64(len(h.probeUs)) / d
	}
	rec.counts["episodes_traced"] = float64(h.episodes)

	reps := l.cfg.reps(5)
	if err := l.probeOpenflow(L, reps); err != nil {
		return fmt.Errorf("openflow probe: %w", err)
	}
	if err := l.probePush(L, reps); err != nil {
		return fmt.Errorf("push probe: %w", err)
	}
	if err := l.probeStore(L, reps); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	return l.probePlanning(L, reps)
}

// probeOpenflow times the control channel's primitives against switch 0's
// agent: connect + Hello handshake, Echo round trip, one FlowMod send (an
// idempotent re-assert of an entry the switch already holds), Barrier round
// trip.
func (l *liveRunner) probeOpenflow(L map[string]float64, reps int) error {
	var sw topo.NodeID
	addr := l.agents[sw].Addr()
	var mod openflow.FlowMod
	found := false
	for i := range l.flows.Flows {
		f := &l.flows.Flows[i]
		if len(f.Path) >= 2 && f.Path[0] == sw {
			mod = openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Priority: 100,
				Match:    openflow.Match{FlowID: uint32(f.ID), Src: uint32(f.Src), Dst: uint32(f.Dst)},
				NextHop:  uint32(f.Path[1]),
			}
			found = true
			break
		}
	}
	if !found {
		return errors.New("no flow starts at switch 0")
	}

	dials, err := timeCalls(10*reps, func() error {
		c, err := openflow.DialTimeout(addr, time.Second)
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return err
	}
	L["openflow.dial_handshake_us"] = median(dials) * 1e6

	c, err := openflow.DialTimeout(addr, time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	c.SetIOTimeout(time.Second)
	pings, err := timeCalls(40*reps, func() error { return c.Ping([]byte("bench")) })
	if err != nil {
		return err
	}
	L["openflow.echo_rtt_us"] = median(pings) * 1e6
	sends, err := timeCalls(400*reps, func() error {
		_, err := c.Send(mod)
		return err
	})
	if err != nil {
		return err
	}
	L["openflow.flowmod_send_ns"] = median(sends) * 1e9
	barriers, err := timeCalls(40*reps, func() error {
		_, _, err := c.Request(openflow.BarrierRequest{})
		return err
	})
	if err != nil {
		return err
	}
	L["openflow.barrier_rtt_us"] = median(barriers) * 1e6
	return nil
}

// probePush calls the wire drivers directly on the fixed two-failure plan
// {3,4} with the workload's own push options: recovery push, ownership
// adoption, ideal restore. It runs after the last episode and leaves the
// network ideal.
func (l *liveRunner) probePush(L map[string]float64, reps int) error {
	var p *refPlan
	for _, q := range l.plans {
		if len(q.set) == 2 && q.set[0] == 3 && q.set[1] == 4 {
			p = q
		}
	}
	if p == nil {
		return errors.New("reference plan {3,4} missing")
	}
	addrs := sdnsim.AgentAddrs(l.agents)
	// Ownership bookkeeping only: keep wan's echo endpoints up so the
	// detector does not start a real recovery under the probe.
	hook := l.net.OnControllerChange
	l.net.OnControllerChange = nil
	defer func() { l.net.OnControllerChange = hook }()
	var domain []topo.NodeID
	for _, j := range p.set {
		domain = append(domain, l.dep.Controllers[j].Domain...)
		if err := l.net.StopController(j); err != nil {
			return err
		}
	}
	var pushes, restores []float64
	gen := uint64(probeGeneration)
	for i := 0; i < reps; i++ {
		opts := l.push
		opts.GenerationID = gen
		gen += 2
		t0 := time.Now()
		rep, err := sdnsim.PushRecoveryResilient(addrs, l.flows, p.inst, p.sol, opts)
		if err != nil {
			return err
		}
		pushes = append(pushes, time.Since(t0).Seconds())
		if len(rep.Demoted) > 0 {
			return fmt.Errorf("direct push demoted %v", rep.Demoted)
		}
		opts.GenerationID++
		t0 = time.Now()
		rr, err := sdnsim.RestoreIdeal(addrs, l.flows, domain, opts)
		if err != nil {
			return err
		}
		restores = append(restores, time.Since(t0).Seconds())
		if len(rr.Failed) > 0 {
			return fmt.Errorf("direct restore left %v unreachable", rr.Failed)
		}
	}
	L["sdnsim.push_ms"] = median(pushes) * 1e3
	L["sdnsim.restore_ms"] = median(restores) * 1e3

	// One adoption is tens of nanoseconds: time a hundred at a stroke.
	adopts, err := timeCalls(8*reps, func() error {
		for i := 0; i < 100; i++ {
			if err := l.net.AdoptMapping(p.inst, p.sol); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["sdnsim.adopt_us"] = median(adopts) / 100 * 1e6
	for _, j := range p.set {
		if err := l.net.StartController(j); err != nil {
			return err
		}
	}
	return nil
}

// probeStore prices the WAL on a scratch directory next to the daemon's:
// one Append (write + fsync), one Checkpoint (temp + fsync + rename + dir
// fsync + truncate), and Open replaying 64 records.
func (l *liveRunner) probeStore(L map[string]float64, reps int) error {
	dir, err := os.MkdirTemp(l.cfg.OutDir, "walprobe-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	type rec struct {
		Epoch  uint64 `json:"epoch"`
		Failed []int  `json:"failed"`
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	appends, err := timeCalls(20*reps, func() error { return st.Append("bench", rec{Epoch: 7, Failed: []int{3, 4}}) })
	if err != nil {
		_ = st.Close()
		return err
	}
	L["store.append_us"] = median(appends) * 1e6
	checkpoints, err := timeCalls(4*reps, func() error { return st.Checkpoint(rec{Epoch: 7, Failed: []int{3, 4}}) })
	if err != nil {
		_ = st.Close()
		return err
	}
	L["store.checkpoint_us"] = median(checkpoints) * 1e6
	for i := 0; i < 64; i++ {
		if err := st.Append("bench", rec{Epoch: uint64(i), Failed: []int{3, 4}}); err != nil {
			_ = st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	replays, err := timeCalls(2*reps, func() error {
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		if n := len(s.Records()); n != 64 {
			_ = s.Close()
			return fmt.Errorf("replayed %d records, wrote 64", n)
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	L["store.replay_ms"] = median(replays) * 1e3
	return nil
}

// probePlanning prices what the react path spends on planning proper: one
// case compile and one warm PM solve of the {3,4} case.
func (l *liveRunner) probePlanning(L map[string]float64, reps int) error {
	ctx, err := scenario.NewContext(l.dep, l.flows)
	if err != nil {
		return err
	}
	var inst *scenario.Instance
	builds, err := timeCalls(40*reps, func() (err error) {
		inst, err = ctx.Build([]int{3, 4})
		return err
	})
	if err != nil {
		return err
	}
	L["scenario.build_us"] = median(builds) * 1e6
	solves, err := timeCalls(40*reps, func() error {
		_, err := core.PM(inst.Problem)
		return err
	})
	if err != nil {
		return err
	}
	L["core.pm_us"] = median(solves) * 1e6
	return nil
}
