package eval

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pmedic/internal/scenario"
)

// TestSweepDeterminism is the sweep engine's acceptance gate: a sweep must
// produce the same CaseResult slice — same case order, same instances, same
// reports, same cached statistics — as compiling and evaluating the cases one
// after another without the engine, no matter how many workers run it, and
// repeated parallel runs must agree with each other. Only the wall-clock
// Runtime fields are exempt, and they are zeroed before comparing.
func TestSweepDeterminism(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	zeroRuntimes := func(cases []*CaseResult) []*CaseResult {
		for _, c := range cases {
			for _, rep := range c.Reports {
				rep.Runtime = 0
			}
		}
		return cases
	}
	var reference []*CaseResult
	for _, failed := range scenario.Combinations(len(dep.Controllers), 2) {
		cr, err := runCase(ctx, failed, heuristics())
		if err != nil {
			t.Fatal(err)
		}
		reference = append(reference, cr)
	}
	zeroRuntimes(reference)
	if len(reference) != 15 {
		t.Fatalf("2-failure enumeration has %d cases, want 15", len(reference))
	}
	for _, workers := range []int{1, 3, 8} {
		for round := 0; round < 2; round++ {
			cases, err := SweepOpts(dep, flows, 2, heuristics(), Options{Workers: workers, Context: ctx})
			if err != nil {
				t.Fatalf("Workers=%d: %v", workers, err)
			}
			if len(cases) != len(reference) {
				t.Fatalf("Workers=%d: %d cases, want %d", workers, len(cases), len(reference))
			}
			for i := range zeroRuntimes(cases) {
				if !reflect.DeepEqual(reference[i], cases[i]) {
					t.Errorf("case %d (%s): Workers=%d run %d differs from the sequential pass",
						i, reference[i].Label, workers, round)
				}
			}
		}
	}
}

// TestForEachCaseLowestErrorWins pins the engine's error contract: whichever
// cases fail and in whatever order the workers get to them, the error
// returned is the failing case with the lowest index, and a case that does
// not compile fails wrapped as "eval: case […]". CI runs it -race -count=50.
func TestForEachCaseLowestErrorWins(t *testing.T) {
	dep, flows := fixtures(t)
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	// 15 plannable cases, then one that lists a controller twice.
	combos := append(scenario.Combinations(len(dep.Controllers), 2), []int{0, 0})
	failAt := func(idx int) error { return fmt.Errorf("fn failed at %d", idx) }
	for round := 0; round < 20; round++ {
		err := ForEachCase(ctx, combos, 8, func(idx int, _ *scenario.Instance) error {
			switch idx {
			case 2:
				// Give the higher failing cases every chance to land first.
				for i := 0; i < 10; i++ {
					runtime.Gosched()
				}
				return failAt(idx)
			case 5, 9:
				return failAt(idx)
			}
			return nil
		})
		if err == nil || err.Error() != failAt(2).Error() {
			t.Fatalf("round %d: error = %v, want case 2's", round, err)
		}

		err = ForEachCase(ctx, combos, 8, func(int, *scenario.Instance) error { return nil })
		if !errors.Is(err, scenario.ErrBadCase) || !strings.HasPrefix(err.Error(), "eval: case [0 0]: ") {
			t.Fatalf("round %d: error = %v, want the unplannable case wrapped as eval: case [0 0]", round, err)
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
