package medic

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pmedic/internal/chaos"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/sdnsim"
	"pmedic/internal/topo"
)

// TestDaemonEndToEnd runs the full daemon stack against a live simulated
// network, all over real sockets:
//
//	switch agents  <- resilient push / ideal restore       <- medic
//	echo servers   <- chaos-jittered openflow Echo probes  <- monitor
//
// and asserts the acceptance path of the online daemon: a two-controller
// failure injected through the network's lifecycle surface is detected
// without any external input, coalesced into one event, re-planned and
// pushed within a bounded number of detector ticks, and fully undone
// (ideal mapping restored) after the controllers return — all observed
// through the daemon's HTTP status endpoint, with zero false-positive
// failovers while the probe path suffers latency jitter.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e daemon test skipped in -short mode")
	}

	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sdnsim.New(dep, flows)
	if err != nil {
		t.Fatal(err)
	}

	// One openflow agent per switch: the push and restore targets.
	agents := make(map[topo.NodeID]*sdnsim.Agent, len(net.Switches))
	for _, sw := range net.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		agents[sw.ID] = a
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()

	// One echo endpoint per controller, wired to the lifecycle hook so that
	// killing a controller takes its probe endpoint dark.
	echos := make([]*openflow.EchoServer, len(net.Controllers))
	for j := range net.Controllers {
		es, err := openflow.ServeEcho("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		echos[j] = es
	}
	defer func() {
		for _, es := range echos {
			_ = es.Close()
		}
	}()
	net.OnControllerChange = func(j int, alive bool) { echos[j].SetAlive(alive) }

	// The probe path runs under latency-jitter-only chaos: slow, never
	// broken. The detector must stay silent through it.
	chaosDial := chaos.NewDialer(chaos.Config{
		Seed:    99,
		Latency: time.Millisecond,
		Jitter:  3 * time.Millisecond,
	})
	probe := monitor.ProbeVia(func(addr string, timeout time.Duration) (*openflow.Conn, error) {
		tr, err := chaosDial.Dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		c := openflow.NewConn(tr)
		c.SetIOTimeout(timeout)
		if err := c.Handshake(); err != nil {
			_ = tr.Close()
			return nil, err
		}
		c.SetIOTimeout(0)
		return c, nil
	})

	detCfg := monitor.Config{
		Interval:  10 * time.Millisecond,
		Jitter:    3 * time.Millisecond,
		Timeout:   250 * time.Millisecond,
		Threshold: 3,
		Debounce:  40 * time.Millisecond,
		Seed:      7,
		Probe:     probe,
	}
	targets := make([]monitor.Target, len(net.Controllers))
	for j := range net.Controllers {
		targets[j] = monitor.Target{ID: j, Name: fmt.Sprintf("c%d", j), Addr: echos[j].Addr()}
	}
	mon := monitor.New(targets, detCfg)

	m, err := New(Config{
		Dep:   dep,
		Flows: flows,
		Addrs: sdnsim.AgentAddrs(agents),
		Net:   net,
		Push:  sdnsim.PushOptions{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	m.Start(mon.Events())
	defer m.Stop()
	defer mon.Stop()

	srv := httptest.NewServer(Handler(func() (Status, error) {
		st := m.Status()
		st.Detector = mon.State()
		return st, nil
	}, m.Metrics()))
	defer srv.Close()

	getStatus := func() Status {
		t.Helper()
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor := func(what string, within time.Duration, cond func(Status) bool) Status {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			st := getStatus()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				raw, _ := json.Marshal(st)
				t.Fatalf("%s not reached within %v; last status: %s", what, within, raw)
			}
			time.Sleep(detCfg.Interval)
		}
	}
	// Convergence budgets, in detector ticks: detection needs Threshold
	// misses plus one debounce window; planning and pushing ride on top.
	// 600 ticks (6s of wall clock here) is an order of magnitude of slack
	// over both, which the race detector's overhead still fits inside.
	budget := 600 * detCfg.Interval

	idealMapping := make([]int, len(net.Switches))
	for j, c := range dep.Controllers {
		for _, sw := range c.Domain {
			idealMapping[sw] = j
		}
	}

	// Phase 0 — steady state under jitter-only chaos: long enough for every
	// target to be probed many times past the suspicion threshold.
	time.Sleep(20 * detCfg.Interval)
	st := getStatus()
	if st.Epoch != 0 || !st.Ideal || !st.Converged {
		t.Fatalf("false positive under jitter-only chaos: %+v", st)
	}
	for _, d := range st.Detector {
		if !d.Up || d.Failures != 0 {
			t.Fatalf("detector flipped target %d under jitter-only chaos: %+v", d.ID, d)
		}
	}

	// Phase 1 — correlated two-controller failure, injected only through the
	// network; the daemon must notice, re-plan, and push on its own.
	if err := net.StopController(3); err != nil {
		t.Fatal(err)
	}
	if err := net.StopController(4); err != nil {
		t.Fatal(err)
	}
	st = waitFor("recovery convergence", budget, func(s Status) bool {
		return s.Converged && !s.Ideal && len(s.Failed) == 2
	})
	if st.Failed[0] != 3 || st.Failed[1] != 4 {
		t.Fatalf("Failed = %v, want [3 4]", st.Failed)
	}
	if st.MinProg < 1 {
		t.Fatalf("converged with r=%d; offline flows left unprogrammable", st.MinProg)
	}
	if st.FlowModsAcked == 0 {
		t.Fatal("converged without acking any flow-mod over the wire")
	}
	if len(st.Unreachable) != 0 {
		t.Fatalf("healthy agents, yet %v demoted as unreachable", st.Unreachable)
	}
	// The adopted ownership must only use live controllers, and must have
	// actually remapped something away from the dead ones.
	remapped := 0
	for sw, j := range st.NetworkMapping {
		if j == 3 || j == 4 {
			t.Fatalf("switch %d still owned by dead controller %d", sw, j)
		}
		if j >= 0 && j != idealMapping[sw] {
			remapped++
		}
	}
	if remapped == 0 {
		t.Fatal("no switch was remapped to a surviving controller")
	}

	// Phase 2 — both controllers return; the daemon must fail back to the
	// ideal mapping and restore the demoted data-plane entries.
	if err := net.StartController(3); err != nil {
		t.Fatal(err)
	}
	if err := net.StartController(4); err != nil {
		t.Fatal(err)
	}
	st = waitFor("fail-back to ideal", budget, func(s Status) bool {
		return s.Ideal && s.Converged && len(s.Failed) == 0
	})
	if st.Restores != 2 {
		t.Fatalf("Restores = %d, want one per returned controller", st.Restores)
	}
	for sw, j := range st.NetworkMapping {
		if j != idealMapping[sw] {
			t.Fatalf("switch %d owned by %d after fail-back, want %d", sw, j, idealMapping[sw])
		}
	}

	// Across the whole run the detector saw exactly the injected failures:
	// one down/up cycle on controllers 3 and 4, nothing anywhere else.
	for _, d := range mon.State() {
		want := uint64(0)
		if d.ID == 3 || d.ID == 4 {
			want = 1
		}
		if d.Failures != want || d.Recoveries != want {
			t.Fatalf("target %d saw %d failures / %d recoveries, want %d of each",
				d.ID, d.Failures, d.Recoveries, want)
		}
		if !d.Up {
			t.Fatalf("target %d left down at the end", d.ID)
		}
	}

	// The daemon's event log tells the full story in order.
	for _, kind := range []Kind{KindDetect, KindPush, KindConverged, KindRestore, KindFailback} {
		if !hasLogKind(st, kind, "") {
			t.Fatalf("no %q entry in the event log: %+v", kind, st.Events)
		}
	}
}
