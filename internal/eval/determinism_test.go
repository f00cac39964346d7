package eval

import (
	"reflect"
	"testing"

	"pmedic/internal/scenario"
)

// TestSweepDeterminism is the sweep engine's acceptance gate: a sweep must
// produce the same CaseResult slice — same case order, same instances, same
// reports, same cached statistics — no matter how many workers run it and no
// matter whether cases compile from scratch or incrementally along Gray
// chains (delta ≡ scratch at every worker count), and repeated parallel runs
// must agree with each other. Only the wall-clock Runtime fields are exempt,
// and they are zeroed before comparing.
func TestSweepDeterminism(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	combos := scenario.Combinations(len(dep.Controllers), 2)
	zeroRuntimes := func(cases []*CaseResult) []*CaseResult {
		for _, c := range cases {
			for _, rep := range c.Reports {
				rep.Runtime = 0
			}
		}
		return cases
	}
	run := func(workers int, mode SweepMode) []*CaseResult {
		t.Helper()
		cases := make([]*CaseResult, len(combos))
		err := ForEachCaseMode(ctx, combos, workers, mode, func(idx int, inst *scenario.Instance) error {
			cr, err := evalCase(inst, combos[idx], heuristics())
			cases[idx] = cr
			return err
		})
		if err != nil {
			t.Fatalf("Workers=%d Mode=%d: %v", workers, mode, err)
		}
		return zeroRuntimes(cases)
	}

	reference := run(1, SweepScratch)
	if len(reference) != 15 {
		t.Fatalf("2-failure sweep produced %d cases, want 15", len(reference))
	}
	for _, mode := range []SweepMode{SweepScratch, SweepDelta} {
		for _, workers := range []int{1, 3, 8} {
			got := run(workers, mode)
			for i := range reference {
				if !reflect.DeepEqual(reference[i], got[i]) {
					t.Errorf("case %d (%s): Workers=%d Mode=%d differs from sequential scratch",
						i, reference[i].Label, workers, mode)
				}
			}
		}
	}
	// The public entry point rides the delta engine: two parallel sweeps
	// agree with the sequential scratch reference, hence with each other.
	for round := 0; round < 2; round++ {
		cases, err := SweepOpts(dep, flows, 2, heuristics(), Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := range zeroRuntimes(cases) {
			if !reflect.DeepEqual(reference[i], cases[i]) {
				t.Errorf("case %d (%s): SweepOpts Workers=8 run %d differs from sequential scratch",
					i, reference[i].Label, round)
			}
		}
	}
}

// TestForEachCaseModeEquivalence compares the instances themselves (not just
// the evaluated reports) between the delta and scratch engines, over the
// mixed-size case enumeration the plan-store compiler uses, at several
// worker counts. This is the delta ≡ scratch equivalence gate CI runs under
// -race.
func TestForEachCaseModeEquivalence(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	combos := scenario.CombinationsUpTo(len(dep.Controllers), 3)
	collect := func(workers int, mode SweepMode) []*scenario.Instance {
		t.Helper()
		out := make([]*scenario.Instance, len(combos))
		err := ForEachCaseMode(ctx, combos, workers, mode, func(idx int, inst *scenario.Instance) error {
			out[idx] = inst
			return nil
		})
		if err != nil {
			t.Fatalf("Workers=%d Mode=%d: %v", workers, mode, err)
		}
		return out
	}
	want := collect(1, SweepScratch)
	for _, workers := range []int{1, 2, 8} {
		got := collect(workers, SweepDelta)
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("case %v: delta instance (Workers=%d) differs from scratch", combos[i], workers)
			}
		}
	}
}

// TestSweepOptsSharedContext reuses one context across sweeps of different k
// and checks the engine against the context-free path.
func TestSweepOptsSharedContext(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		plain, err := SweepOpts(dep, flows, k, heuristics(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := SweepOpts(dep, flows, k, heuristics(), Options{Context: ctx, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(shared) {
			t.Fatalf("k=%d: %d vs %d cases", k, len(plain), len(shared))
		}
		for i := range plain {
			for _, cases := range [][]*CaseResult{plain, shared} {
				for _, rep := range cases[i].Reports {
					rep.Runtime = 0
				}
			}
			if !reflect.DeepEqual(plain[i], shared[i]) {
				t.Errorf("k=%d case %d (%s): shared-context result differs", k, i, plain[i].Label)
			}
		}
	}
}
