package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// tinyProblem builds a small, hand-checkable instance:
//
//	2 switches, 2 controllers, 3 flows.
//	Switch 0: pairs with flows 0 (p̄=2) and 1 (p̄=3).
//	Switch 1: pairs with flows 1 (p̄=2) and 2 (p̄=4).
//	Rest = [2, 2]; delays favor controller 0 for switch 0, 1 for switch 1.
func tinyProblem(t *testing.T) *Problem {
	t.Helper()
	p := &Problem{
		NumSwitches:    2,
		NumControllers: 2,
		NumFlows:       3,
		Rest:           []int{2, 2},
		Gamma:          []int{10, 10},
		Delay: [][]float64{
			{1, 5},
			{5, 1},
		},
		Pairs: []Pair{
			{Switch: 0, Flow: 0, PBar: 2},
			{Switch: 0, Flow: 1, PBar: 3},
			{Switch: 1, Flow: 1, PBar: 2},
			{Switch: 1, Flow: 2, PBar: 4},
		},
	}
	if err := p.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	p.BudgetMs = p.IdealDelayBudget()
	return p
}

func TestFinalizeValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Problem)
		want   string
	}{
		{"empty", func(p *Problem) { p.NumSwitches = 0 }, "core: empty problem: N=0 M=2 L=3"},
		{"rest size", func(p *Problem) { p.Rest = []int{1} }, "len(Rest)=1, want 2"},
		{"gamma size", func(p *Problem) { p.Gamma = nil }, "len(Gamma)=0, want 2"},
		{"delay rows", func(p *Problem) { p.Delay = p.Delay[:1] }, "len(Delay)=1, want 2"},
		{"delay cols", func(p *Problem) { p.Delay[0] = p.Delay[0][:1] }, "len(Delay[0])=1, want 2"},
		{"negative delay", func(p *Problem) { p.Delay[0][0] = -1 }, "Delay[0][0]=-1"},
		{"nan delay", func(p *Problem) { p.Delay[1][1] = math.NaN() }, "Delay[1][1]=NaN"},
		{"negative rest", func(p *Problem) { p.Rest[0] = -1 }, "Rest[0]=-1"},
		{"pair switch", func(p *Problem) { p.Pairs[0].Switch = 9 }, "pair 0 switch 9"},
		{"pair flow", func(p *Problem) { p.Pairs[0].Flow = -1 }, "pair 0 flow -1"},
		{"pair pbar", func(p *Problem) { p.Pairs[1].PBar = 1 }, "pair 1 p̄=1 (eligible pairs need p̄ >= 2)"},
		{"negative lambda", func(p *Problem) { p.Lambda = -0.5 }, "Lambda=-0.5"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := &Problem{
				NumSwitches:    2,
				NumControllers: 2,
				NumFlows:       3,
				Rest:           []int{2, 2},
				Gamma:          []int{10, 10},
				Delay:          [][]float64{{1, 5}, {5, 1}},
				Pairs: []Pair{
					{Switch: 0, Flow: 0, PBar: 2},
					{Switch: 1, Flow: 2, PBar: 4},
				},
			}
			tc.mutate(p)
			err := p.Finalize()
			if err == nil {
				t.Fatal("Finalize accepted an invalid problem")
			}
			if !strings.HasSuffix(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to end in %q", err, tc.want)
			}
		})
	}
}

func TestFinalizeDerivedFields(t *testing.T) {
	p := tinyProblem(t)
	if p.Lambda != DefaultLambda {
		t.Fatalf("Lambda = %v, want default %v", p.Lambda, DefaultLambda)
	}
	// Flow 1 has pairs at both switches -> TotalIterations = 2.
	if p.TotalIterations != 2 {
		t.Fatalf("TotalIterations = %d, want 2", p.TotalIterations)
	}
	if lo, hi := p.SwitchRun(0); lo != 0 || hi != 2 {
		t.Fatalf("SwitchRun(0) = [%d, %d)", lo, hi)
	}
	if got := p.PairsOfFlow(1); len(got) != 2 {
		t.Fatalf("PairsOfFlow(1) = %v", got)
	}
	if p.EligiblePairCount(1) != 2 {
		t.Fatalf("EligiblePairCount(1) = %d", p.EligiblePairCount(1))
	}
	if p.TotalRest() != 4 {
		t.Fatalf("TotalRest = %d", p.TotalRest())
	}

	// The layout contract: whatever order Pairs arrive in, they leave
	// switch-major with each switch's pairs in their given relative order, the
	// switch runs and PairsOfFlow index exactly what a scan of Pairs finds,
	// and finalizing again moves nothing.
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		shuffled := seed%4 != 0 // every fourth problem stays as built: switch-major
		if shuffled {
			rng.Shuffle(len(p.Pairs), func(a, b int) { p.Pairs[a], p.Pairs[b] = p.Pairs[b], p.Pairs[a] })
		}
		given := slices.Clone(p.Pairs)
		p.TotalIterations = 0
		if err := p.Finalize(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// The stable sort by switch of what was given, by brute force.
		var want []Pair
		for i := 0; i < p.NumSwitches; i++ {
			lo, hi := p.SwitchRun(i)
			if lo != len(want) {
				t.Fatalf("seed %d: switch %d's run starts at %d, want %d", seed, i, lo, len(want))
			}
			for _, pr := range given {
				if pr.Switch == i {
					want = append(want, pr)
				}
			}
			if hi != len(want) || p.EligiblePairCount(i) != hi-lo {
				t.Fatalf("seed %d: switch %d's run ends at %d (count %d), want %d", seed, i, hi, p.EligiblePairCount(i), len(want))
			}
		}
		if !slices.Equal(p.Pairs, want) {
			t.Fatalf("seed %d: Pairs after Finalize\n got %v\nwant %v", seed, p.Pairs, want)
		}
		if !shuffled && !slices.Equal(p.Pairs, given) {
			t.Fatalf("seed %d: Finalize reordered switch-major pairs", seed)
		}
		maxPerFlow := 1
		for l := 0; l < p.NumFlows; l++ {
			var ks []int
			for k, pr := range p.Pairs {
				if pr.Flow == l {
					ks = append(ks, k)
				}
			}
			if !slices.Equal(p.PairsOfFlow(l), ks) {
				t.Fatalf("seed %d: PairsOfFlow(%d) = %v, want %v", seed, l, p.PairsOfFlow(l), ks)
			}
			maxPerFlow = max(maxPerFlow, len(ks))
		}
		if p.TotalIterations != maxPerFlow {
			t.Fatalf("seed %d: TotalIterations = %d, want %d", seed, p.TotalIterations, maxPerFlow)
		}

		if err := p.Finalize(); err != nil {
			t.Fatalf("seed %d: second Finalize: %v", seed, err)
		}
		if !slices.Equal(p.Pairs, want) {
			t.Fatalf("seed %d: a second Finalize moved pairs", seed)
		}
	}
}

func TestNearestControllers(t *testing.T) {
	p := tinyProblem(t)
	if got := p.NearestControllers(0); got[0] != 0 || got[1] != 1 {
		t.Fatalf("NearestControllers(0) = %v", got)
	}
	if got := p.NearestControllers(1); got[0] != 1 || got[1] != 0 {
		t.Fatalf("NearestControllers(1) = %v", got)
	}
}

func TestNearestControllersTieBreak(t *testing.T) {
	p := &Problem{
		NumSwitches:    1,
		NumControllers: 3,
		NumFlows:       1,
		Rest:           []int{1, 1, 1},
		Gamma:          []int{1},
		Delay:          [][]float64{{2, 2, 1}},
		Pairs:          []Pair{{Switch: 0, Flow: 0, PBar: 2}},
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	got := p.NearestControllers(0)
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestIdealDelayBudget(t *testing.T) {
	p := tinyProblem(t)
	// γ=10 each; nearest delays are 1 and 1.
	if p.IdealDelayBudget() != 20 {
		t.Fatalf("G = %v, want 20", p.IdealDelayBudget())
	}
}

func TestVerifyRejectsUnfinalized(t *testing.T) {
	p := &Problem{NumSwitches: 1, NumControllers: 1, NumFlows: 1}
	s := &Solution{SwitchController: []int{-1}, Active: []bool{}}
	if err := s.Verify(p); !errors.Is(err, ErrInvalidProblem) {
		t.Fatalf("error = %v, want ErrInvalidProblem", err)
	}
}
