package eval

import (
	"testing"
	"time"

	"pmedic/internal/core"
)

// mkCase hand-builds a CaseResult whose reports carry only runtimes; nil
// durations mean the algorithm had no result for the case.
func mkCase(runtimes map[string]time.Duration) *CaseResult {
	cr := &CaseResult{Reports: make(map[string]*core.Report, len(runtimes))}
	for name, rt := range runtimes {
		cr.Reports[name] = &core.Report{Runtime: rt}
	}
	return cr
}

// TestRuntimePctTable pins RuntimePct's contract, including the missing
// numerator/baseline and zero-baseline paths.
func TestRuntimePctTable(t *testing.T) {
	cr := mkCase(map[string]time.Duration{
		"PM":      25 * time.Millisecond,
		"Optimal": 100 * time.Millisecond,
		"Frozen":  0,
	})
	tests := []struct {
		name          string
		alg, baseline string
		wantPct       float64
		wantOK        bool
	}{
		{name: "quarter of baseline", alg: "PM", baseline: "Optimal", wantPct: 25, wantOK: true},
		{name: "equal to itself", alg: "Optimal", baseline: "Optimal", wantPct: 100, wantOK: true},
		{name: "missing algorithm", alg: "Nope", baseline: "Optimal", wantOK: false},
		{name: "missing baseline", alg: "PM", baseline: "Nope", wantOK: false},
		{name: "zero-runtime baseline", alg: "PM", baseline: "Frozen", wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pct, ok := cr.RuntimePct(tt.alg, tt.baseline)
			if ok != tt.wantOK {
				t.Fatalf("RuntimePct(%q, %q) ok = %v, want %v", tt.alg, tt.baseline, ok, tt.wantOK)
			}
			if ok && pct != tt.wantPct {
				t.Fatalf("RuntimePct(%q, %q) = %v, want %v", tt.alg, tt.baseline, pct, tt.wantPct)
			}
			if !ok && pct != 0 {
				t.Fatalf("RuntimePct(%q, %q) = %v with ok=false, want 0", tt.alg, tt.baseline, pct)
			}
		})
	}
}
