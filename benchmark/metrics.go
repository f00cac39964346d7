package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// program's side of BENCHMARK.json; selftest_test.go holds them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, so their names are generic; what "op" and
// "op2" mean on each workload is fixed in workloads (main.go) and in the
// README glossary.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_q1", "ms", "lower", 0.25},
	{"op2_ms_q1", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer are the single-layer metrics of the traced run, layer = package
// name. A workload reports 0 for the layers it does not exercise.
var perLayer = []metricDef{
	{Name: "flow.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.newcontext_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.build_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_allocs", Unit: "count", Better: "lower"},
	{Name: "scenario.builddelta_us", Unit: "us", Better: "lower"},
	{Name: "core.pm_us", Unit: "us", Better: "lower"},
	{Name: "core.pm_allocs", Unit: "count", Better: "lower"},
	{Name: "core.retroflow_us", Unit: "us", Better: "lower"},
	{Name: "core.pg_us", Unit: "us", Better: "lower"},
	{Name: "core.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "core.classindex_ms", Unit: "ms", Better: "lower"},
	{Name: "core.class_count", Unit: "count", Better: "lower"},
	{Name: "core.flows_per_class", Unit: "count", Better: "higher"},
	{Name: "region.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "region.solvepm_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.engine_us_per_case", Unit: "us", Better: "lower"},
	{Name: "eval.engine_scratch_us_per_case", Unit: "us", Better: "lower"},
	{Name: "opt.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.relax_sparse_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.relax_dense_ms", Unit: "ms", Better: "lower"},
	{Name: "planstore.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "planstore.open_us", Unit: "us", Better: "lower"},
	{Name: "planstore.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "planstore.fallback_us", Unit: "us", Better: "lower"},
	{Name: "planstore.miss_us", Unit: "us", Better: "lower"},
	{Name: "planstore.file_bytes", Unit: "bytes", Better: "lower"},
	{Name: "planstore.hits", Unit: "count", Better: "higher"},
	{Name: "planstore.fallbacks", Unit: "count", Better: "lower"},
	{Name: "planstore.misses", Unit: "count", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "store.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "store.fsyncs_per_episode", Unit: "count", Better: "lower"},
	{Name: "store.fsync_floor_us", Unit: "us", Better: "lower"},
	{Name: "monitor.detect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "monitor.probe_us", Unit: "us", Better: "lower"},
	{Name: "monitor.probes_per_s", Unit: "1/s", Better: "lower"},
	{Name: "medic.react_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "medic.plan_us", Unit: "us", Better: "lower"},
	{Name: "medic.push_ms", Unit: "ms", Better: "lower"},
	{Name: "medic.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "medic.other_ms", Unit: "ms", Better: "lower"},
	{Name: "medic.status_us", Unit: "us", Better: "lower"},
	{Name: "sdnsim.push_ms", Unit: "ms", Better: "lower"},
	{Name: "sdnsim.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "sdnsim.adopt_us", Unit: "us", Better: "lower"},
	{Name: "sdnsim.flowmods_per_episode", Unit: "count", Better: "lower"},
	{Name: "sdnsim.attempts_per_switch", Unit: "count", Better: "lower"},
	{Name: "sdnsim.retries", Unit: "count", Better: "lower"},
	{Name: "sdnsim.demoted", Unit: "count", Better: "lower"},
	{Name: "openflow.dial_handshake_us", Unit: "us", Better: "lower"},
	{Name: "openflow.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "openflow.flowmod_send_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.barrier_rtt_us", Unit: "us", Better: "lower"},
	{Name: "chaos.ops_per_episode", Unit: "count", Better: "lower"},
	{Name: "chaos.bytes_per_episode", Unit: "bytes", Better: "lower"},
	{Name: "chaos.sleep_floor_us", Unit: "us", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// quantile returns the q-quantile (0..1) of values by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// tailSupported reports whether a sample has at least ten observations
// beyond the q-quantile, the rule under which a tail percentile is printed.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}
