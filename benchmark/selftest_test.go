package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testWriter routes the harness's report into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestSelf runs every workload in quick mode (0.3 s windows, a 200-node
// stand-in for scale-syn) twice, untraced then traced, and asserts what the
// driver relies on: every named metric present and finite, the end-to-end
// ones positive, no failed operation, and the same digest from both runs.
func TestSelf(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "scale-syn" && testing.Short() {
				t.Skip("the scale fixture takes seconds to generate")
			}
			var digests []string
			for _, trace := range []bool{false, true} {
				cfg := config{
					Seed:    2,
					Seconds: 0.3,
					Warmup:  0.05,
					Trace:   trace,
					Quick:   true,
					OutDir:  t.TempDir(),
					Log:     testWriter{t},
				}
				res, err := runWorkload(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v ops=%d ops_failed=%d errors=%v", trace, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics reported, want %d", trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, d.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
						t.Errorf("traced run wrote no trace file: %v", err)
					}
					for _, name := range tracedNonZero[w.Name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("traced %s run reports %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
						}
					}
				}
				if _, err := res.save(cfg.OutDir); err != nil {
					t.Error(err)
				}
				if line, err := json.Marshal(res.contract()); err != nil || len(line) == 0 {
					t.Errorf("contract line: %v", err)
				}
				digests = append(digests, res.Digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("result_digest differs between two runs of one seed: %v", digests)
			}
		})
	}
}

// tracedNonZero names, per workload, layer metrics its traced run must have
// measured (the layers it exists to exercise).
var tracedNonZero = map[string][]string{
	"live-att-react": {"medic.react_ms_p50", "medic.plan_us", "medic.push_ms", "medic.restore_ms", "store.fsyncs_per_episode",
		"sdnsim.flowmods_per_episode", "sdnsim.push_ms", "openflow.echo_rtt_us", "store.append_us", "medic.status_us"},
	"live-att-wan": {"monitor.detect_ms_p50", "monitor.probe_us", "monitor.probes_per_s", "chaos.ops_per_episode",
		"chaos.bytes_per_episode", "medic.push_ms", "chaos.sleep_floor_us"},
	"sweep-att": {"core.pm_us", "core.retroflow_us", "core.pg_us", "core.evaluate_us", "scenario.builddelta_us",
		"scenario.build_allocs", "eval.engine_us_per_case", "eval.engine_scratch_us_per_case"},
	"store-att": {"planstore.compile_ms", "planstore.open_us", "planstore.hit_ns", "planstore.fallback_us",
		"planstore.miss_us", "planstore.file_bytes", "planstore.hits", "planstore.fallbacks", "planstore.misses"},
	"scale-syn":   {"flow.generate_ms", "scenario.newcontext_ms", "region.partition_ms", "scenario.build_us", "core.pm_us", "region.solvepm_ms"},
	"optimal-att": {"opt.solve_ms", "opt.relax_sparse_ms", "opt.relax_dense_ms"},
}

// TestBenchmarkJSON holds BENCHMARK.json equal to the program's own tables:
// the driver reads the file, the program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, program has %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: file has %+v, program has %+v", i, got, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := doc.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: file has %+v, program has %+v", i, got, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "react", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "plan", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "push", Parent: 0, Start: ms(25), End: ms(70)}, // overlaps plan by 5 ms
		{Name: "late", Parent: 0, Start: ms(90), End: ms(120)},
		{Name: "open", Parent: 0, Start: ms(95), End: -1},
	}
	if got := selfTimes(spans, "react"); len(got) != 1 || math.Abs(got[0]-0.030) > 1e-9 {
		t.Errorf("self time of react = %v, want [0.030] (100 ms minus the 60 ms and 10 ms its children cover)", got)
	}
	if !nested(spans, "plan") || !nested(spans, "push") {
		t.Error("plan and push lie inside react")
	}
	if nested(spans, "late") {
		t.Error("late ends after its parent and must not count as nested")
	}
	if got := durations(spans, "open"); len(got) != 0 {
		t.Errorf("an unfinished span has no duration, got %v", got)
	}
}

func TestRecorderQuartiles(t *testing.T) {
	r := newRecorder(nil)
	// Input 0 is cheap and sampled often, input 1 is dear and sampled once:
	// the pooled median would be 1 ms, the median over inputs is 50.5 ms.
	for i := 0; i < 9; i++ {
		r.class = 0
		r.observe("op", time.Millisecond)
		r.observe("iter", 2*time.Millisecond)
	}
	r.class = 1
	r.observe("op", 100*time.Millisecond)
	r.observe("iter", 198*time.Millisecond)
	r.classUnits = map[int]float64{0: 1, 1: 3}
	if got := r.q1("op"); math.Abs(got-0.0505) > 1e-9 {
		t.Errorf("q1 over inputs = %v, want 0.0505", got)
	}
	if got := median(r.pooled("op")); got != 0.001 {
		t.Errorf("pooled median = %v, want 0.001", got)
	}
	// One pass = 4 units in 2 ms + 198 ms.
	if got := r.rate(); math.Abs(got-20) > 1e-9 {
		t.Errorf("rate = %v, want 20 units/s", got)
	}
	// A slow burst over a third of an input's samples leaves its quartile
	// where it was.
	r.class = 0
	for i := 0; i < 4; i++ {
		r.observe("op", 50*time.Millisecond)
	}
	if got := r.firstQuartiles("op")[0]; got != 0.001 {
		t.Errorf("first quartile under a burst = %v, want 0.001", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_q1", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 70, 130, 100, 90, 110, 60, 140, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"identical", lower, base, base, same},
		{"slower within bound", lower, base, shift(1.05), same},
		{"slower beyond bound", lower, base, shift(1.2), worse},
		{"faster on every pair", lower, base, shift(0.9), gain},
		{"rate drop beyond bound", higher, base, shift(0.8), worse},
		{"rate rise", higher, base, shift(1.1), gain},
		{"spread wider than the bound", lower, noisy, noisy, unresolved},
		{"too few pairs for a gain", lower, base[:5], shift(0.9)[:5], same},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
