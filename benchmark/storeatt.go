package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/planstore"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// consultStream is how many Consult calls one round serves: eight batches of
// consultBatch, the unit the traced run times. A round then takes ~0.15 s,
// so a 10 s window holds enough compiles for a steady median.
const (
	consultStream = 2048
	consultBatch  = 256
)

// storeCase is one pre-built failure case of the consult stream with its
// reference (fresh core.PM) solution and the outcome the store must report.
type storeCase struct {
	inst *scenario.Instance
	ref  *core.Solution
	want planstore.Outcome
}

// storeRunner is store-att: writes beside reads on the plan store. Each
// round compiles the explicit sets C(6,2) ∪ C(6,3) (35 plans: solve, encode,
// write, fsync, rename), opens the file, and serves a seeded consult stream
// that is 50 % depth-2/3 (exact hit), 35 % depth-1 (superset projection plus
// residual repair) and 15 % depth-4 (miss, then a fresh core.PM solve).
type storeRunner struct {
	cfg config

	dep   *topo.Deployment
	flows *flow.Set
	ctx   *scenario.Context
	sets  [][]int
	dir   string
	path  string

	cases    []storeCase
	stream   []int32
	wantHash [32]byte
	wantN    [3]int // expected misses, hits, fallbacks per round (Outcome order)
	round    int64
}

func (s *storeRunner) Setup() (err error) {
	if s.dep, err = topo.ATT(); err != nil {
		return err
	}
	if s.flows, err = flow.Generate(s.dep.Graph, flow.Options{}); err != nil {
		return err
	}
	if s.ctx, err = scenario.NewContext(s.dep, s.flows); err != nil {
		return err
	}
	m := len(s.dep.Controllers)
	s.sets = append(scenario.Combinations(m, 2), scenario.Combinations(m, 3)...)
	if s.dir, err = os.MkdirTemp(s.cfg.OutDir, "planstore-*"); err != nil {
		return err
	}
	s.path = filepath.Join(s.dir, "att.pmps")

	// Pre-build every case the stream can ask for, by outcome class.
	var byClass [3][]int32
	for depth := 1; depth <= 4; depth++ {
		want := planstore.OutcomeHit
		switch depth {
		case 1:
			want = planstore.OutcomeFallback
		case 4:
			want = planstore.OutcomeMiss
		}
		for _, set := range scenario.Combinations(m, depth) {
			inst, err := s.ctx.Build(set)
			if err != nil {
				return err
			}
			byClass[want] = append(byClass[want], int32(len(s.cases)))
			s.cases = append(s.cases, storeCase{inst: inst, want: want})
		}
	}
	n := consultStream
	if s.cfg.Quick {
		n = consultBatch
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	s.stream = make([]int32, n)
	for i := range s.stream {
		class := planstore.OutcomeHit
		switch r := rng.Float64(); {
		case r < 0.15:
			class = planstore.OutcomeMiss
		case r < 0.50:
			class = planstore.OutcomeFallback
		}
		pool := byClass[class]
		s.stream[i] = pool[rng.Intn(len(pool))]
		s.wantN[class]++
	}
	// First compile: the file exists before the first round.
	_, err = s.compile()
	return err
}

func (s *storeRunner) compile() (*planstore.CompileStats, error) {
	return planstore.Compile(s.dep, s.flows, s.path, planstore.CompileOptions{Sets: s.sets, Context: s.ctx})
}

func (s *storeRunner) Close() {
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
	*s = storeRunner{cfg: s.cfg}
}

func sameSolution(a, b *core.Solution) bool {
	return slices.Equal(a.SwitchController, b.SwitchController) && slices.Equal(a.Active, b.Active) &&
		slices.Equal(a.PairController, b.PairController) && a.SwitchLevel == b.SwitchLevel && a.MiddleLayer == b.MiddleLayer
}

// consult serves one request the way the daemon does: the store first, a
// fresh solve on a miss.
func consult(st *planstore.Store, ctx *scenario.Context, inst *scenario.Instance) (*core.Solution, planstore.Outcome, error) {
	sol, outcome, err := st.Consult(ctx, inst, core.PM)
	if err != nil {
		return nil, outcome, err
	}
	if outcome == planstore.OutcomeMiss {
		sol, err = core.PM(inst.Problem)
	}
	return sol, outcome, err
}

// Prepare solves every case afresh, pins the compiled file's hash, and runs
// every case through the store once with full checks: a hit must be
// byte-identical to the fresh solve, a fallback must verify.
func (s *storeRunner) Prepare() (string, error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return "", err
	}
	s.wantHash = sha256.Sum256(data)
	st, err := planstore.Open(s.path)
	if err != nil {
		return "", err
	}
	defer func() { _ = st.Close() }()
	h := sha256.New()
	fmt.Fprintf(h, "%x %v\n", s.wantHash, s.wantN)
	for i := range s.cases {
		c := &s.cases[i]
		if c.ref, err = core.PM(c.inst.Problem); err != nil {
			return "", err
		}
		sol, outcome, err := consult(st, s.ctx, c.inst)
		if err != nil {
			return "", fmt.Errorf("case %v: %w", c.inst.Failed, err)
		}
		if err := s.check(c, sol, outcome); err != nil {
			return "", err
		}
		rep, err := c.inst.Evaluate(sol)
		if err != nil {
			return "", fmt.Errorf("case %v (%s): %w", c.inst.Failed, outcome, err)
		}
		hashReport(h, c.inst.Label(), outcome.String(), rep)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

func (s *storeRunner) check(c *storeCase, sol *core.Solution, outcome planstore.Outcome) error {
	if outcome != c.want {
		return fmt.Errorf("case %v served as %s, want %s", c.inst.Failed, outcome, c.want)
	}
	if outcome == planstore.OutcomeFallback {
		return sol.Verify(c.inst.Problem)
	}
	if !sameSolution(sol, c.ref) {
		return fmt.Errorf("case %v (%s) is not byte-identical to a fresh solve", c.inst.Failed, outcome)
	}
	return nil
}

func (s *storeRunner) Cycle() int { return 1 }

func (s *storeRunner) Op(rec *recorder, _ int) error {
	s.round++
	tr := rec.tr
	root := tr.begin("planstore.round", -1, s.round)
	defer tr.end(root)

	t0 := time.Now()
	sp := tr.begin("planstore.compile", root, s.round)
	stats, err := s.compile()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("planstore.open", root, s.round)
	st, err := planstore.Open(s.path)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	rec.observe("op", time.Since(t0))

	data, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	if sha256.Sum256(data) != s.wantHash {
		return fmt.Errorf("round %d: compiled file differs from the first compile", s.round)
	}
	rec.counts["planstore.file_bytes"] = float64(stats.Bytes)

	var got [3]int
	t0 = time.Now()
	sp = tr.begin("planstore.consult_stream", root, s.round)
	for i, ci := range s.stream {
		c := &s.cases[ci]
		sol, outcome, err := consult(st, s.ctx, c.inst)
		if err != nil {
			tr.end(sp)
			return fmt.Errorf("round %d consult %d: %w", s.round, i, err)
		}
		got[outcome]++
		// Full checks ran in Prepare; the stream re-checks a sample so the
		// timed loop stays a consult loop.
		if i%64 == 0 {
			if err := s.check(c, sol, outcome); err != nil {
				tr.end(sp)
				return fmt.Errorf("round %d consult %d: %w", s.round, i, err)
			}
		}
	}
	tr.end(sp)
	rec.observe("op2", time.Since(t0))
	if got != s.wantN {
		return fmt.Errorf("round %d: outcomes miss/hit/fallback %v, stream holds %v", s.round, got, s.wantN)
	}
	rec.units += float64(len(s.stream))
	rec.counts["planstore.hits"] = float64(got[planstore.OutcomeHit])
	rec.counts["planstore.fallbacks"] = float64(got[planstore.OutcomeFallback])
	rec.counts["planstore.misses"] = float64(got[planstore.OutcomeMiss])
	return nil
}

// Layers prices each consult outcome on its own, in batches of consultBatch
// calls over the cases of that class.
func (s *storeRunner) Layers(rec *recorder, spans []span) error {
	L := rec.layers
	L["planstore.compile_ms"] = median(durations(spans, "planstore.compile")) * 1e3
	L["planstore.open_us"] = median(durations(spans, "planstore.open")) * 1e6
	for _, name := range []string{"planstore.file_bytes", "planstore.hits", "planstore.fallbacks", "planstore.misses"} {
		L[name] = rec.counts[name]
	}
	st, err := planstore.Open(s.path)
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	batches := 4 * s.cfg.reps(5)
	for class, name := range map[planstore.Outcome]string{
		planstore.OutcomeHit:      "planstore.hit_ns",
		planstore.OutcomeFallback: "planstore.fallback_us",
		planstore.OutcomeMiss:     "planstore.miss_us",
	} {
		var pool []*storeCase
		for i := range s.cases {
			if s.cases[i].want == class {
				pool = append(pool, &s.cases[i])
			}
		}
		per, err := timeCalls(batches, func() error {
			for i := 0; i < consultBatch; i++ {
				if _, _, err := consult(st, s.ctx, pool[i%len(pool)].inst); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		scale := 1e6
		if class == planstore.OutcomeHit {
			scale = 1e9
		}
		L[name] = median(per) / consultBatch * scale
	}
	return nil
}
