package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's knobs. Window lengths are the same on every commit:
// they come from the command line (BENCHMARK.json fixes run_seconds), never
// from what the code under test does.
type config struct {
	Seed int64
	// Seconds is the measured window; Warmup the unrecorded one before it.
	Seconds float64
	Warmup  float64
	Trace   bool
	// Quick shrinks fixtures and budgets for the self-test; its numbers are
	// not comparable with a full run and its digests are not the goldens.
	Quick        bool
	OutDir       string
	UpdateGolden bool
	Log          io.Writer
}

// runner is one workload. The harness owns the sequence set-up → prepare →
// warm-up → window → layers, so every workload is timed the same way.
type runner interface {
	// Setup builds everything needed before the first operation: topology,
	// flows, scenario context, agents, stores, first compile. It is what
	// setup_s times, and it may run several times (each followed by Close).
	Setup() error
	// Close releases what Setup built and stops every goroutine it started.
	Close()
	// Prepare runs once, untimed, after the final Setup: it computes the
	// reference outputs the window's operations are checked against and
	// returns the result digest (a hash of those reference outputs, so it
	// does not depend on how many operations the window fits).
	Prepare() (string, error)
	// Cycle is the number of distinct inputs the workload rotates through:
	// operation i runs input i mod Cycle (the seed decides the order, never
	// the population).
	Cycle() int
	// Op runs closed-loop operation i, checks its output, and records its
	// timings in rec. A returned error counts the operation as failed.
	Op(rec *recorder, i int) error
	// Layers fills rec.layers: direct-call probes of single layers plus the
	// reduction of the traced window's spans. Traced runs only.
	Layers(rec *recorder, spans []span) error
}

// sample is one timing with the input it was taken on.
type sample struct {
	class   int
	seconds float64
}

// recorder collects one window's observations.
type recorder struct {
	tr      *tracer
	class   int                 // input of the operation in flight (i mod Cycle)
	samples map[string][]sample // keyed "op" / "op2"; "iter" is the harness's own
	units   float64             // work units completed
	// classUnits is the work one operation on each input completes.
	classUnits map[int]float64
	attempted  int
	failed     int
	errs       []string
	layers     map[string]float64
	counts     map[string]float64 // exact counters (must repeat run to run)
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, samples: map[string][]sample{}, classUnits: map[int]float64{},
		layers: map[string]float64{}, counts: map[string]float64{}}
}

func (r *recorder) observe(key string, d time.Duration) {
	r.samples[key] = append(r.samples[key], sample{r.class, d.Seconds()})
}

// firstQuartiles returns, per input, the first quartile of its samples.
//
// Why a quartile and why per input. The sandbox this runs on slows down by
// 25-50 % for a second or three, several times a minute (a fixed 20 µs solve
// read 19-40 µs over one minute); a median moves with the share of a window
// such bursts happen to cover, the first quartile does not until they cover
// three quarters of it. And inputs differ in cost by an order of magnitude (a
// one-controller failure against three; 57 000 offline flows against
// 140 000), so pooling them would follow whichever inputs the last partial
// pass reached.
func (r *recorder) firstQuartiles(key string) map[int]float64 {
	byClass := map[int][]float64{}
	for _, s := range r.samples[key] {
		byClass[s.class] = append(byClass[s.class], s.seconds)
	}
	out := make(map[int]float64, len(byClass))
	for c, v := range byClass {
		out[c] = quantile(v, 0.25)
	}
	return out
}

// q1 is the reported time of an operation: the median over inputs of each
// input's first quartile.
func (r *recorder) q1(key string) float64 {
	per := r.firstQuartiles(key)
	v := make([]float64, 0, len(per))
	for _, q := range per {
		v = append(v, q)
	}
	return median(v)
}

// pooled returns every sample of key regardless of input.
func (r *recorder) pooled(key string) []float64 {
	out := make([]float64, 0, len(r.samples[key]))
	for _, s := range r.samples[key] {
		out = append(out, s.seconds)
	}
	return out
}

// rate is work units per second of one pass over the inputs, each input
// taking its first-quartile iteration time (operation plus the driver's
// checks, start to start): the throughput the closed loop sustains outside
// the sandbox's slow bursts.
func (r *recorder) rate() float64 {
	var units, seconds float64
	for c, q := range r.firstQuartiles("iter") {
		units += r.classUnits[c]
		seconds += q
	}
	if seconds == 0 {
		return 0
	}
	return units / seconds
}

// reps scales a probe's repeat count: full in a real run, one in the
// self-test.
func (c config) reps(full int) int {
	if c.Quick {
		return 1
	}
	return full
}

// timeCalls runs fn n times and returns each call's duration in seconds.
func timeCalls(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// allocsPer returns the mean heap allocations of one fn call over n calls on
// this goroutine (other goroutines must be idle).
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// metricValue is one entry of the contract's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies where and how a result was measured.
type stamp struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Network      string  `json:"network"`
	Seed         int64   `json:"seed"`
	WindowS      float64 `json:"window_s"`
	WarmupS      float64 `json:"warmup_s"`
	SleepFloorUs float64 `json:"sleep_floor_us"`
	FsyncFloorUs float64 `json:"fsync_floor_us"`
	Godebug      string  `json:"godebug"`
	Quick        bool    `json:"quick,omitempty"`
	When         string  `json:"when"`
}

// resultFile is what -out receives per run; -compare reads these back.
type resultFile struct {
	Stamp     stamp                  `json:"stamp"`
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"ops"`
	Failed    int                    `json:"ops_failed"`
	Digest    string                 `json:"result_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Meaning maps the generic end-to-end names onto this workload's
	// operations (for example op_ms_q1 → recovery_ms).
	Meaning map[string]string `json:"meaning"`
	// Detail carries sample counts, supported tail percentiles and exact
	// counters; nothing in it is bounded.
	Detail map[string]float64 `json:"detail"`
	Errors []string           `json:"errors,omitempty"`
	// Claim is always null: the benchmark is the ruler, not a result.
	Claim *string `json:"claim"`
}

// setupRepeats and setupBudget bound how often set-up is repeated to steady
// setup_s (the first quartile of the repeats): millisecond set-ups run 100
// times, a set-up that alone exceeds the budget runs once.
const (
	setupRepeats = 100
	setupBudget  = 500 * time.Millisecond
)

// runWorkload measures one workload once.
func runWorkload(cfg config, w workload) (*resultFile, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	st := newStamp(cfg)
	r := w.New(cfg)

	repeats := setupRepeats
	if cfg.Quick {
		repeats = 2
	}
	var setups []float64
	setupStart := time.Now()
	for {
		t0 := time.Now()
		if err := r.Setup(); err != nil {
			r.Close()
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) >= repeats || time.Since(setupStart) > setupBudget {
			break
		}
		r.Close()
	}
	defer r.Close()

	digest, err := r.Prepare()
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.Name, err)
	}

	// Warm-up, at least one pass over the inputs: caches fill, pools and the
	// heap grow to their working size, the WAL reaches its first checkpoint.
	// Failures here are failures of the run.
	warm := newRecorder(nil)
	next := 0
	minOps := r.Cycle()
	if cfg.Quick {
		minOps = 1
	}
	runWindow(r, warm, cfg.Warmup, minOps, &next)

	var (
		rec, plain *recorder
		spans      []span
	)
	if !cfg.Trace {
		rec = newRecorder(nil)
		elapsed := runWindow(r, rec, cfg.Seconds, 1, &next)
		rec.counts["window_s"] = elapsed.Seconds()
		rec.counts["units"] = rec.units
	} else {
		// The traced run splits its window: the first half runs with the
		// hooks installed but idle, the second records spans. The difference
		// between the halves is the tracing overhead.
		plain = newRecorder(nil)
		runWindow(r, plain, cfg.Seconds/2, 1, &next)
		rec = newRecorder(newTracer())
		runWindow(r, rec, cfg.Seconds/2, 1, &next)
		spans = rec.tr.all()
	}
	for _, other := range []*recorder{warm, plain} {
		if other != nil {
			rec.attempted += other.attempted
			rec.failed += other.failed
			rec.errs = append(rec.errs, other.errs...)
		}
	}

	res := &resultFile{
		Stamp:     st,
		Workload:  w.Name,
		Why:       w.Why,
		Trace:     cfg.Trace,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Digest:    digest,
		Metrics:   map[string]metricValue{},
		Meaning:   w.Meaning,
		Detail:    map[string]float64{},
		Errors:    rec.errs,
	}
	for k, v := range rec.counts {
		res.Detail[k] = v
	}
	for _, key := range []string{"op", "op2"} {
		s := rec.pooled(key)
		res.Detail[key+"_samples"] = float64(len(s))
		if tailSupported(len(s), 0.9) {
			res.Detail[key+"_ms_p90"] = quantile(s, 0.9) * 1e3
		}
		res.Detail[key+"_ms_p50"] = median(s) * 1e3
	}

	if !cfg.Trace {
		values := map[string]float64{
			"setup_s":   quantile(setups, 0.25),
			"op_ms_q1":  rec.q1("op") * 1e3,
			"op2_ms_q1": rec.q1("op2") * 1e3,
			"ops_per_s": rec.rate(),
		}
		res.Detail["setup_samples"] = float64(len(setups))
		for _, d := range endToEnd {
			v := values[d.Name]
			if !(v > 0) {
				res.Errors = append(res.Errors, fmt.Sprintf("end-to-end metric %s is %v: the window held no complete operation", d.Name, v))
			}
			res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	} else {
		if err := r.Layers(rec, spans); err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("layers: %v", err))
		}
		if base := plain.q1("op"); base > 0 {
			rec.layers["trace.overhead_pct"] = (rec.q1("op") - base) / base * 100
		}
		rec.layers["chaos.sleep_floor_us"] = st.SleepFloorUs
		rec.layers["store.fsync_floor_us"] = st.FsyncFloorUs
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rec.layers["proc.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
		rec.layers["proc.peak_rss_mb"] = peakRSSMB()
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: rec.layers[d.Name], Unit: d.Unit}
		}
		for name := range rec.layers {
			if _, ok := res.Metrics[name]; !ok {
				res.Errors = append(res.Errors, "unlisted per-layer metric "+name)
			}
		}
		path := filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
		if err := writeChromeTrace(path, spans); err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("trace: %v", err))
		}
		res.Detail["spans"] = float64(len(spans))
	}

	if err := checkGolden(cfg, w.Name, digest); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0 && res.Attempted > 0
	fmt.Fprintln(cfg.Log, renderResult(res))
	return res, nil
}

// runWindow runs operations back to back (closed loop: the next starts when
// the previous has ended) until seconds have passed and at least minOps have
// run, and returns the time actually spent. An operation in flight at the deadline is completed and
// counted. next numbers operations across windows so the input rotation
// continues where the previous window stopped. Three failures in a row end
// the window: the stack is wedged.
func runWindow(r runner, rec *recorder, seconds float64, minOps int, next *int) time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	cycle := r.Cycle()
	streak := 0
	for t0 := start; t0.Before(deadline) || rec.attempted < minOps; {
		rec.attempted++
		rec.class = *next % cycle
		before := rec.units
		err := r.Op(rec, *next)
		*next++
		now := time.Now()
		if err != nil {
			rec.failed++
			rec.errs = append(rec.errs, err.Error())
			if streak++; streak == 3 {
				break
			}
		} else {
			streak = 0
			rec.observe("iter", now.Sub(t0))
			rec.classUnits[rec.class] = rec.units - before
		}
		t0 = now
	}
	return time.Since(start)
}

// newStamp gathers the identifying facts of a run, including the two
// machine floors the live workloads sit on: what a short time.Sleep really
// costs (the chaos transport sleeps once per read and write) and what one
// small write+fsync costs (the WAL pays it per record).
func newStamp(cfg config) stamp {
	return stamp{
		Commit:       commitID(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Network:      "loopback",
		Seed:         cfg.Seed,
		WindowS:      cfg.Seconds,
		WarmupS:      cfg.Warmup,
		SleepFloorUs: sleepFloor(),
		FsyncFloorUs: fsyncFloor(cfg.OutDir),
		Godebug:      os.Getenv("GODEBUG"),
		Quick:        cfg.Quick,
		When:         time.Now().UTC().Format(time.RFC3339),
	}
}

// sleepFloor is the median real duration of time.Sleep(200µs), in µs.
func sleepFloor() float64 {
	var d []float64
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		time.Sleep(200 * time.Microsecond)
		d = append(d, time.Since(t0).Seconds()*1e6)
	}
	return median(d)
}

// fsyncFloor is the median cost of a 64-byte append plus fsync in dir, in
// µs; 0 when the directory cannot be written.
func fsyncFloor(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-floor-*")
	if err != nil {
		return 0
	}
	defer func() {
		_ = f.Close()
		_ = os.Remove(f.Name())
	}()
	buf := make([]byte, 64)
	var d []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		d = append(d, time.Since(t0).Seconds()*1e6)
	}
	return median(d)
}

// commitID names the measured commit: the VCS stamp of the binary when the
// go tool recorded one, else git, else "unknown" (the driver's checkout is
// not a repository).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's high-water resident set from /proc; 0 where
// that is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// checkGolden compares a full-size seed-1 digest with the committed golden
// (or rewrites the golden under -update-golden). Other seeds and quick runs
// must pass on their checks alone.
func checkGolden(cfg config, name, digest string) error {
	if cfg.Quick || cfg.Seed != 1 {
		return nil
	}
	file := name + ".digest"
	if cfg.UpdateGolden {
		dir := filepath.Join("benchmark", "golden")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, file), []byte(digest+"\n"), 0o644)
	}
	want, err := goldenFS.ReadFile("golden/" + file)
	if err != nil {
		return fmt.Errorf("no golden digest for %s (run once with -seed 1 -update-golden): %w", name, err)
	}
	if got := strings.TrimSpace(string(want)); got != digest {
		return fmt.Errorf("result_digest %s differs from golden %s: the outputs for seed 1 changed", digest, got)
	}
	return nil
}

// contract reduces a result to the line the driver parses.
func (res *resultFile) contract() contractLine {
	return contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
}

// save writes the result file into dir and returns its path.
func (res *resultFile) save(dir string) (string, error) {
	trace := 0
	if res.Trace {
		trace = 1
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d-%d.json", res.Workload, res.Stamp.Seed, trace, time.Now().UnixNano())
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// renderResult prints every metric by name with its unit.
func renderResult(res *resultFile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (seed %d, window %.3gs, trace %v, %s, GOMAXPROCS %d, %s)\n",
		res.Workload, res.Stamp.Seed, res.Stamp.WindowS, res.Trace, res.Stamp.Network, res.Stamp.GOMAXPROCS, res.Stamp.CPUModel)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if res.Trace && m.Value == 0 {
			continue // layer not exercised by this workload
		}
		label := n
		if as := res.Meaning[n]; as != "" {
			label += " (" + as + ")"
		}
		fmt.Fprintf(&b, "  %-44s %14.6g %s\n", label, m.Value, m.Unit)
	}
	details := make([]string, 0, len(res.Detail))
	for n := range res.Detail {
		details = append(details, n)
	}
	sort.Strings(details)
	for _, n := range details {
		fmt.Fprintf(&b, "  . %-42s %14.6g\n", n, res.Detail[n])
	}
	fmt.Fprintf(&b, "  ops %d  ops_failed %d  result_digest %s  correct %v\n", res.Attempted, res.Failed, res.Digest, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(&b, "  ERROR %s\n", e)
	}
	return b.String()
}
