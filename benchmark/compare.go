package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadResults reads every result-*.json of a directory, oldest first (the
// file names end in the time they were written).
func loadResults(dir string) ([]*resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no result-*.json files", dir)
	}
	sort.Slice(paths, func(a, b int) bool { return runStamp(paths[a]) < runStamp(paths[b]) })
	var out []*resultFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		res := new(resultFile)
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// runStamp is the trailing "-<unixnano>.json" of a result file name.
func runStamp(path string) string {
	base := filepath.Base(path)
	return base[strings.LastIndexByte(base, '-')+1:]
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	same       verdict = "same"       // B's median is within the bound of A's
	worse      verdict = "worse"      // B's median is worse than A's by more than the bound
	gain       verdict = "gain"       // B wins ≥ 9/10 pairs and the medians differ by more than A's interquartile distance
	unresolved verdict = "unresolved" // the run-to-run spread exceeds the bound, and the runs do not separate
)

// judge compares the runs a and b (in run order) of one end-to-end metric
// by the rules of the choosing-metrics guide, section 8.
func judge(d metricDef, a, b []float64) verdict {
	sign := 1.0 // positive delta = worse
	if d.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	iqrA := quantile(a, 0.75) - quantile(a, 0.25)
	iqrB := quantile(b, 0.75) - quantile(b, 0.25)

	// Pairs in run order; ties count for neither side.
	pairs, bWins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			bWins++
		}
	}
	everyBBetter := true
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				everyBBetter = false
			}
		}
	}

	delta := sign * (mb - ma)
	switch {
	case delta > d.Bound*ma:
		return worse
	case pairs >= 10 && float64(bWins) >= 0.9*float64(pairs) && -delta > iqrA:
		return gain
	case (iqrA > d.Bound*ma || iqrB > d.Bound*mb) && !everyBBetter:
		return unresolved
	default:
		return same
	}
}

// compareDirs prints medians and quartiles per workload × end-to-end metric
// for two sets of result files and a verdict for each, and checks that the
// things which must repeat exactly (result digests, the exact counters) do.
// It reports whether anything is worse, unresolved, failed or inconsistent.
func compareDirs(w io.Writer, dirA, dirB string) (bad bool, err error) {
	ra, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	rb, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB vs A\tbound\tverdict")
	for _, wl := range workloads {
		pick := func(rs []*resultFile, trace bool) []*resultFile {
			var out []*resultFile
			for _, r := range rs {
				if r.Workload == wl.Name && r.Trace == trace && !r.Stamp.Quick {
					out = append(out, r)
				}
			}
			return out
		}
		a, b := pick(ra, false), pick(rb, false)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d runs\t%d runs\t-\t-\tmissing\n", wl.Name, len(a), len(b))
			bad = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(a, d.Name), values(b, d.Name)
			v := judge(d, va, vb)
			if v == worse || v == unresolved {
				bad = true
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit,
				ma, quantile(va, 0.25), quantile(va, 0.75), len(va),
				mb, quantile(vb, 0.25), quantile(vb, 0.75), len(vb),
				(mb-ma)/ma*100, d.Bound*100, v)
		}
		// What must repeat exactly, over untraced and traced runs alike.
		all := append(append(pick(ra, true), pick(rb, true)...), append(a, b...)...)
		for _, problem := range inconsistencies(all) {
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tinconsistent\n", wl.Name, problem)
			bad = true
		}
	}
	return bad, tw.Flush()
}

func values(rs []*resultFile, metric string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// exactCounters are per-layer counts that depend on the inputs alone; two
// runs of one seed must agree on them to the last digit.
var exactCounters = []string{"planstore.hits", "planstore.fallbacks", "planstore.misses", "planstore.file_bytes", "core.class_count"}

// inconsistencies lists what differs between runs but must not: failed
// operations, and per seed the result digest and the exact counters.
func inconsistencies(rs []*resultFile) []string {
	var out []string
	type key struct {
		seed int64
		what string
	}
	seen := map[key]string{}
	note := func(seed int64, what, value string) {
		k := key{seed, what}
		if prev, ok := seen[k]; ok && prev != value {
			out = append(out, fmt.Sprintf("%s differs between runs of seed %d: %s vs %s", what, seed, prev, value))
		}
		seen[k] = value
	}
	for _, r := range rs {
		if r.Failed > 0 || !r.Correct {
			out = append(out, fmt.Sprintf("a run of seed %d has ops_failed=%d correct=%v", r.Stamp.Seed, r.Failed, r.Correct))
		}
		note(r.Stamp.Seed, "result_digest", r.Digest)
		for _, c := range exactCounters {
			if v, ok := r.Metrics[c]; ok && r.Trace {
				note(r.Stamp.Seed, c, fmt.Sprint(v.Value))
			}
		}
	}
	return out
}
