// Command pmedicd runs the online recovery daemon over a simulated SD-WAN:
// it boots the ATT deployment with an openflow agent per switch and an echo
// liveness endpoint per controller, starts the failure detector
// (internal/monitor: a heartbeat per controller, plus one watched session
// whose reset makes a crash known in round trips rather than heartbeat
// periods) and the event-driven recovery orchestrator (internal/medic), and
// serves the daemon's state over HTTP.
//
// With -state-dir the daemon is crash-safe and replicable: its reconciled
// state persists as snapshot+WAL (internal/store) in the directory, and a
// lease there (internal/election) elects one leader among every replica
// sharing it. Only the leader reconciles and pushes; followers tail the
// store read-only and serve /status from it. Failover is fenced: a leader
// signs only epochs it has durably reserved, a new leader resumes at an epoch
// past the dead one's reservation, stamps the matching OpenFlow generation ID
// onto the agents, and the predecessor's in-flight pushes and late WAL writes
// are both refused.
//
// Controller failures are injected either externally (the status endpoint
// tells you where the echo endpoints listen) or with the built-in chaos
// script: -kill fails a controller set after -kill-after, and -revive-after
// brings it back, demonstrating the full detect → re-plan → push →
// fail-back cycle.
//
// Usage:
//
//	pmedicd [-listen 127.0.0.1:8080] [-interval 500ms] [-timeout 0]
//	        [-threshold 3] [-debounce 0] [-jitter 0] [-seed 1]
//	        [-state-dir ""] [-replica-id ""]
//	        [-lease-ttl 2s] [-compact-every 0]
//	        [-kill 3,4] [-kill-after 5s] [-revive-after 10s]
//	        [-run-for 0] [-dry-run]
//
// Durations given as 0 pick the detector's defaults (timeout = interval,
// jitter = interval/4, debounce = 2×interval); a negative duration or count
// is refused. -run-for 0 runs until interrupted; SIGINT/SIGTERM drain the
// reconcile loop, flush the WAL, resign the lease, and exit 0. -dry-run
// builds the whole stack, prints the wiring, and exits without serving —
// the CI smoke mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pmedic/internal/election"
	"pmedic/internal/flow"
	"pmedic/internal/medic"
	"pmedic/internal/monitor"
	"pmedic/internal/openflow"
	"pmedic/internal/sdnsim"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmedicd:", err)
		os.Exit(1)
	}
}

type config struct {
	listen      string
	interval    time.Duration
	timeout     time.Duration
	threshold   int
	debounce    time.Duration
	jitter      time.Duration
	seed        int64
	kill        []int
	killAfter   time.Duration
	reviveAfter time.Duration
	runFor      time.Duration
	dryRun      bool

	// HA: a non-empty stateDir turns on persistence and leader election.
	stateDir     string
	replicaID    string
	leaseTTL     time.Duration
	compactEvery int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("pmedicd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP status listen address")
	interval := fs.Duration("interval", 500*time.Millisecond, "probe interval per controller")
	timeout := fs.Duration("timeout", 0, "per-probe timeout (0 = interval)")
	threshold := fs.Int("threshold", 3, "consecutive misses before a controller is declared down")
	debounce := fs.Duration("debounce", 0, "how long a returned controller is held before it is announced; failures are not held by it (0 = 2×interval)")
	jitter := fs.Duration("jitter", 0, "probe schedule jitter (0 = interval/4)")
	seed := fs.Int64("seed", 1, "seed for probe schedules and push retry jitter")
	stateDir := fs.String("state-dir", "", "snapshot+WAL state directory; enables crash-safe HA mode")
	replicaID := fs.String("replica-id", "", "this replica's name in the leader lease (default pmedicd-<pid>)")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Second, "leader lease validity; failover latency after SIGKILL is about one TTL")
	compactEvery := fs.Int("compact-every", 0, "WAL records since the last checkpoint before the daemon folds them into a snapshot (0 = store default, 64)")
	kill := fs.String("kill", "", "comma-separated controller indices the chaos script kills")
	killAfter := fs.Duration("kill-after", 5*time.Second, "delay before the chaos kill")
	reviveAfter := fs.Duration("revive-after", 10*time.Second, "delay before the killed controllers return (0 = never)")
	runFor := fs.Duration("run-for", 0, "total run time (0 = until interrupted)")
	dryRun := fs.Bool("dry-run", false, "build the stack, print the wiring, and exit")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	// A negative duration or count is refused, not run as its default.
	var negative error
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && negative == nil {
			negative = fmt.Errorf("invalid -%s %s: want 0 or more", f.Name, f.Value)
		}
	})
	if negative != nil {
		return config{}, negative
	}
	cfg := config{
		listen:       *listen,
		interval:     *interval,
		timeout:      *timeout,
		threshold:    *threshold,
		debounce:     *debounce,
		jitter:       *jitter,
		seed:         *seed,
		killAfter:    *killAfter,
		reviveAfter:  *reviveAfter,
		runFor:       *runFor,
		dryRun:       *dryRun,
		stateDir:     *stateDir,
		replicaID:    *replicaID,
		leaseTTL:     *leaseTTL,
		compactEvery: *compactEvery,
	}
	if cfg.replicaID == "" {
		cfg.replicaID = fmt.Sprintf("pmedicd-%d", os.Getpid())
	}
	if *kill != "" {
		for _, part := range strings.Split(*kill, ",") {
			j, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return config{}, fmt.Errorf("-kill: %w", err)
			}
			cfg.kill = append(cfg.kill, j)
		}
	}
	return cfg, nil
}

// stack is the simulated substrate every daemon role operates on: the
// network, an agent per switch, an echo endpoint per controller.
type stack struct {
	dep     *topo.Deployment
	flows   *flow.Set
	network *sdnsim.Network
	addrs   map[topo.NodeID]string
	echos   []*openflow.EchoServer
	targets []monitor.Target
	close   func()
}

func buildStack() (*stack, error) {
	dep, err := topo.ATT()
	if err != nil {
		return nil, err
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		return nil, err
	}
	network, err := sdnsim.New(dep, flows)
	if err != nil {
		return nil, err
	}
	s := &stack{dep: dep, flows: flows, network: network}

	agents := make(map[topo.NodeID]*sdnsim.Agent, len(network.Switches))
	echos := make([]*openflow.EchoServer, 0, len(network.Controllers))
	s.close = func() {
		for _, a := range agents {
			_ = a.Close()
		}
		for _, es := range echos {
			_ = es.Close()
		}
	}
	for _, sw := range network.Switches {
		a, err := sdnsim.ServeSwitch(sw, "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		agents[sw.ID] = a
	}
	s.addrs = sdnsim.AgentAddrs(agents)
	for range network.Controllers {
		es, err := openflow.ServeEcho("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		echos = append(echos, es)
	}
	s.echos = echos
	network.OnControllerChange = func(j int, alive bool) { echos[j].SetAlive(alive) }
	s.targets = make([]monitor.Target, len(network.Controllers))
	for j := range network.Controllers {
		s.targets[j] = monitor.Target{ID: j, Name: fmt.Sprintf("controller-%d", j), Addr: echos[j].Addr()}
	}
	return s, nil
}

// swapHandler atomically swaps the live HTTP surface as the replica moves
// between follower and leader.
type swapHandler struct{ v atomic.Value }

func (h *swapHandler) Set(inner http.Handler) { h.v.Store(inner) }
func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(http.Handler).ServeHTTP(w, r)
}

// followerHandler serves a follower's read-only view: the daemon's HTTP
// surface over the status tailed from the shared store, and a registry that
// has counted nothing.
func followerHandler(dir, id string) http.Handler {
	return medic.Handler(func() (medic.Status, error) {
		st, err := medic.ReadStatus(dir)
		if err != nil {
			return st, err
		}
		st.Replica = id
		st.Role = "follower"
		if lease, err := election.Leader(dir); err == nil {
			st.Term = lease.Term
		}
		return st, nil
	}, new(medic.Metrics))
}

// daemon is one pmedicd replica: always the stack and the HTTP surface,
// plus — while leading — the store, detector, and reconcile loop.
type daemon struct {
	cfg config
	s   *stack
	out io.Writer

	handler *swapHandler
	el      *election.Elector
	st      *store.Store
	mon     *monitor.Monitor
	m       *medic.Medic
	fenced  chan struct{}
}

func (d *daemon) detectorConfig() monitor.Config {
	return monitor.Config{
		Interval:  d.cfg.interval,
		Jitter:    d.cfg.jitter,
		Timeout:   d.cfg.timeout,
		Threshold: d.cfg.threshold,
		Debounce:  d.cfg.debounce,
		Seed:      d.cfg.seed,
	}
}

// medicConfig wires a medic over the stack and the state store d.st (nil when
// not leading, or standalone).
func (d *daemon) medicConfig() medic.Config {
	return medic.Config{
		Dep:       d.s.dep,
		Flows:     d.s.flows,
		Addrs:     d.s.addrs,
		Net:       d.s.network,
		Push:      sdnsim.PushOptions{Seed: d.cfg.seed},
		Store:     d.st,
		ReplicaID: d.cfg.replicaID,
		OnFenced: func() {
			select {
			case d.fenced <- struct{}{}:
			default:
			}
		},
	}
}

// promote runs the leader takeover sequence: open the store under the
// lease guard, replay it into a medic (the epoch bump past the dead leader's
// reservation fences it), reserve this leader's own block of epochs and stamp
// the new epoch's generation floor onto the agents (over channels the medic
// keeps as its standby sessions), hand the restored failure set to a fresh
// detector, start reconciling, and swap in the leader HTTP surface.
func (d *daemon) promote(term uint64) error {
	opts := store.Options{CompactEvery: d.cfg.compactEvery}
	if d.el != nil {
		opts.Guard = d.el.Check
	}
	var err error
	if d.cfg.stateDir != "" {
		if d.st, err = store.Open(d.cfg.stateDir, opts); err != nil {
			return err
		}
	}
	d.m, err = medic.New(d.medicConfig())
	if err != nil {
		if d.st != nil {
			_ = d.st.Close()
			d.st = nil
		}
		return err
	}
	d.m.SetRole("leader", term)
	if gen, fenced, err := d.m.Fence(); gen > 0 || err != nil {
		if err != nil {
			// Unreachable agents are demoted later by the push path; a fenced
			// sweep, or a reservation the store refused, only means this
			// replica is itself stale.
			fmt.Fprintf(d.out, "pmedicd: fencing sweep at generation %d: %d fenced, %v\n", gen, fenced, err)
		} else {
			fmt.Fprintf(d.out, "pmedicd: fenced %d agents at generation %d\n", fenced, gen)
		}
	}
	st := d.m.Status()
	d.mon = monitor.New(d.s.targets, d.detectorConfig())
	if restored := st.Failed; len(restored) > 0 {
		d.mon.MarkDown(restored...)
		fmt.Fprintf(d.out, "pmedicd: detector handoff: controllers %v restored as down\n", restored)
	}
	d.mon.Start()
	d.m.Start(d.mon.Events())
	m, mon := d.m, d.mon
	d.handler.Set(medic.Handler(func() (medic.Status, error) {
		st := m.Status()
		st.Detector = mon.State()
		return st, nil
	}, m.Metrics()))
	reserved := ""
	if d.st != nil {
		reserved = fmt.Sprintf(" (reserved through %d)", st.EpochReserved)
	}
	fmt.Fprintf(d.out, "pmedicd: %s leading at term %d, epoch %d%s\n", d.cfg.replicaID, term, st.Epoch, reserved)
	return nil
}

// demote tears the leader pipeline down: stop probing, drain the reconcile
// loop, flush the WAL into a checkpoint (graceful only), release the
// store, and fall back to the follower HTTP surface.
func (d *daemon) demote(graceful bool) {
	if d.cfg.stateDir != "" {
		d.handler.Set(followerHandler(d.cfg.stateDir, d.cfg.replicaID))
	}
	if d.mon != nil {
		d.mon.Stop()
		d.mon = nil
	}
	if d.m != nil {
		d.m.Stop()
		if graceful {
			if err := d.m.FlushState(); err != nil {
				fmt.Fprintf(d.out, "pmedicd: flush on shutdown: %v\n", err)
			}
		}
		d.m = nil
	}
	if d.st != nil {
		_ = d.st.Close()
		d.st = nil
	}
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	s, err := buildStack()
	if err != nil {
		return err
	}
	defer s.close()
	for _, j := range cfg.kill {
		if j < 0 || j >= len(s.network.Controllers) {
			return fmt.Errorf("-kill: controller %d out of range [0,%d)", j, len(s.network.Controllers))
		}
	}

	d := &daemon{cfg: cfg, s: s, out: out, handler: &swapHandler{}, fenced: make(chan struct{}, 1)}

	fmt.Fprintf(out, "pmedicd: ATT: %d switches (agents up), %d controllers (echo endpoints up)\n",
		len(s.network.Switches), len(s.network.Controllers))
	for j := range s.network.Controllers {
		fmt.Fprintf(out, "  controller %d: site %d, probe endpoint %s\n",
			j, s.dep.Controllers[j].Site, s.echos[j].Addr())
	}
	fmt.Fprintf(out, "  detector: interval=%v threshold=%d\n", cfg.interval, cfg.threshold)
	if cfg.stateDir != "" {
		fmt.Fprintf(out, "  HA: replica %s, state dir %s, lease TTL %v\n",
			cfg.replicaID, cfg.stateDir, cfg.leaseTTL)
	}

	d.handler.Set(followerHandler(cfg.stateDir, cfg.replicaID))

	if cfg.dryRun {
		if cfg.stateDir != "" {
			st, err := store.Open(cfg.stateDir, store.Options{CompactEvery: cfg.compactEvery})
			if err != nil {
				return err
			}
			_ = st.Close()
		}
		fmt.Fprintln(out, "pmedicd: dry run, exiting")
		return nil
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.handler}
	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()
	fmt.Fprintf(out, "pmedicd: status at http://%s/status\n", ln.Addr())

	// Standalone mode leads unconditionally; HA mode leads only on
	// election, and every transition flows through the channels.
	electedC := make(chan uint64, 1)
	deposedC := make(chan struct{}, 1)
	if cfg.stateDir == "" {
		if err := d.promote(0); err != nil {
			return err
		}
	} else {
		d.el, err = election.New(election.Config{
			Dir:  cfg.stateDir,
			ID:   cfg.replicaID,
			TTL:  cfg.leaseTTL,
			Seed: cfg.seed,
			OnElected: func(term uint64) {
				select {
				case electedC <- term:
				default:
				}
			},
			OnDeposed: func() {
				select {
				case deposedC <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			return err
		}
		d.el.Start()
		fmt.Fprintf(out, "pmedicd: %s campaigning for the lease in %s\n", cfg.replicaID, cfg.stateDir)
	}

	// The optional chaos script: kill, then maybe revive.
	var killC, reviveC <-chan time.Time
	if len(cfg.kill) > 0 {
		kt := time.NewTimer(cfg.killAfter)
		defer kt.Stop()
		killC = kt.C
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var runC <-chan time.Time
	if cfg.runFor > 0 {
		rt := time.NewTimer(cfg.runFor)
		defer rt.Stop()
		runC = rt.C
	}

	for {
		select {
		case term := <-electedC:
			if err := d.promote(term); err != nil {
				fmt.Fprintf(out, "pmedicd: promotion at term %d failed: %v\n", term, err)
				d.demote(false)
			}
		case <-deposedC:
			fmt.Fprintf(out, "pmedicd: %s deposed, stepping down\n", cfg.replicaID)
			d.demote(false)
		case <-d.fenced:
			// A push was refused by a newer generation: a newer leader owns
			// the network even if our lease view lags. Step down and resign
			// so the real leader's term advances cleanly.
			fmt.Fprintf(out, "pmedicd: %s fenced on the wire, stepping down\n", cfg.replicaID)
			d.demote(false)
			if d.el != nil {
				_ = d.el.Resign()
			}
		case <-killC:
			killC = nil
			fmt.Fprintf(out, "pmedicd: chaos: killing controllers %v\n", cfg.kill)
			for _, j := range cfg.kill {
				if err := s.network.StopController(j); err != nil {
					return err
				}
			}
			if cfg.reviveAfter > 0 {
				rt := time.NewTimer(cfg.reviveAfter)
				defer rt.Stop()
				reviveC = rt.C
			}
		case <-reviveC:
			reviveC = nil
			fmt.Fprintf(out, "pmedicd: chaos: reviving controllers %v\n", cfg.kill)
			for _, j := range cfg.kill {
				if err := s.network.StartController(j); err != nil && !errors.Is(err, sdnsim.ErrControllerAlive) {
					return err
				}
			}
		case sig := <-stop:
			fmt.Fprintf(out, "pmedicd: %v, shutting down\n", sig)
			return shutdown(srv, d, out)
		case <-runC:
			fmt.Fprintf(out, "pmedicd: run time elapsed, shutting down\n")
			return shutdown(srv, d, out)
		case err := <-httpErr:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}

// shutdown is the graceful exit: drain the reconcile loop, flush the WAL
// into a checkpoint, resign the lease for an immediate handoff, close the
// HTTP server, and print the daemon's final state. It returns nil — the
// exit-0 contract of SIGINT/SIGTERM.
func shutdown(srv *http.Server, d *daemon, out io.Writer) error {
	var final *medic.Status
	if d.m != nil {
		st := d.m.Status()
		final = &st
	}
	d.demote(true)
	if d.el != nil {
		if err := d.el.Resign(); err != nil {
			fmt.Fprintf(out, "pmedicd: resign: %v\n", err)
		}
		d.el.Stop()
	}
	_ = srv.Close()
	if final == nil {
		fmt.Fprintln(out, "pmedicd: shut down as follower")
		return nil
	}
	raw, err := json.MarshalIndent(final, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pmedicd: final state:\n%s\n", raw)
	return nil
}
