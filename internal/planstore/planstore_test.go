package planstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

func attFixture(t testing.TB) (*topo.Deployment, *flow.Set, *scenario.Context) {
	t.Helper()
	dep, err := topo.ATT()
	if err != nil {
		t.Fatalf("ATT: %v", err)
	}
	flows, err := flow.Generate(dep.Graph, flow.Options{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return dep, flows, ctx
}

func compileDepth2(t testing.TB) (string, *CompileStats, *scenario.Context) {
	t.Helper()
	dep, flows, ctx := attFixture(t)
	path := filepath.Join(t.TempDir(), "att.pmps")
	stats, err := Compile(dep, flows, path, CompileOptions{Sets: scenario.CombinationsUpTo(len(dep.Controllers), 2), Context: ctx})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return path, stats, ctx
}

// samePlan compares the deterministic fields of two solutions — everything
// but the wall-clock Runtime.
func samePlan(a, b *core.Solution) bool {
	return a.Algorithm == b.Algorithm &&
		a.SwitchLevel == b.SwitchLevel &&
		a.MiddleLayer == b.MiddleLayer &&
		reflect.DeepEqual(a.SwitchController, b.SwitchController) &&
		reflect.DeepEqual(a.Active, b.Active) &&
		reflect.DeepEqual(a.PairController, b.PairController)
}

// TestRoundTrip is the store's core property: for every compiled failure
// set, Consult hits and reproduces a fresh PM solve bit for bit.
func TestRoundTrip(t *testing.T) {
	path, stats, ctx := compileDepth2(t)
	combos := scenario.CombinationsUpTo(len(ctx.Dep.Controllers), 2)
	if stats.Entries != len(combos) {
		t.Fatalf("compiled %d entries, want %d", stats.Entries, len(combos))
	}
	if stats.Depth != 2 {
		t.Fatalf("header depth %d, want 2", stats.Depth)
	}

	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if st.hdr.TopoHash != TopoHash(ctx.Dep, ctx.Flows) {
		t.Fatal("header topology hash does not match the fixture")
	}
	if st.hdr.Algorithm != "PM" {
		t.Fatalf("header algorithm %q, want PM", st.hdr.Algorithm)
	}

	for _, failed := range combos {
		inst, err := ctx.Build(failed)
		if err != nil {
			t.Fatalf("Build %v: %v", failed, err)
		}
		got, outcome, err := st.Consult(ctx, inst, core.PM)
		if err != nil || outcome != OutcomeHit {
			t.Fatalf("Consult %v: outcome=%v err=%v", failed, outcome, err)
		}
		want, err := core.PM(inst.Problem)
		if err != nil {
			t.Fatalf("PM %v: %v", failed, err)
		}
		if !samePlan(got, want) {
			t.Fatalf("case %v: stored plan differs from fresh PM solve", failed)
		}
		if err := got.Verify(inst.Problem); err != nil {
			t.Fatalf("case %v: decoded plan infeasible: %v", failed, err)
		}
	}
}

// TestLookupMiss covers the two non-hit shapes: a depth-3 set (superset of
// nothing in a depth-2 store) misses Exact but finds no Superset either, so
// Consult reports a miss, while a set whose superset was compiled resolves
// through Superset.
func TestLookupMiss(t *testing.T) {
	path, _, ctx := compileDepth2(t)
	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	if _, ok := st.Exact([]int{0, 1, 2}); ok {
		t.Fatal("depth-3 set served from a depth-2 store")
	}
	if _, ok := st.Superset([]int{0, 1, 2}); ok {
		t.Fatal("depth-2 store claims a superset of a depth-3 set")
	}
	inst, err := ctx.Build([]int{0, 1, 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if sol, outcome, err := st.Consult(ctx, inst, core.PM); sol != nil || outcome != OutcomeMiss || err != nil {
		t.Fatalf("Consult {0,1,2}: plan=%v outcome=%v err=%v, want a bare miss", sol != nil, outcome, err)
	}
	rec, ok := st.Superset([]int{3})
	if !ok {
		t.Fatal("no superset found for {3} in a depth-2 store")
	}
	set := rec.FailedSet()
	if len(set) != 2 || (set[0] != 3 && set[1] != 3) {
		t.Fatalf("superset of {3} is %v, want a pair containing 3", set)
	}
	// Smallest key wins ties at equal depth: {0,3} has key 0b1001.
	if set[0] != 0 || set[1] != 3 {
		t.Fatalf("superset of {3} is %v, want [0 3] (smallest key)", set)
	}
}

// TestSparseStoreConsult compiles only {3,4} and drives Consult through all
// three outcomes: exact hit on {3,4}, superset fallback on {3}, and miss on
// {0} — with the fallback plan feasible on its instance.
func TestSparseStoreConsult(t *testing.T) {
	dep, flows, ctx := attFixture(t)
	path := filepath.Join(t.TempDir(), "sparse.pmps")
	if _, err := Compile(dep, flows, path, CompileOptions{Sets: [][]int{{3, 4}}, Context: ctx}); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()

	check := func(failed []int, want Outcome) *core.Solution {
		t.Helper()
		inst, err := ctx.Build(failed)
		if err != nil {
			t.Fatalf("Build %v: %v", failed, err)
		}
		sol, outcome, err := st.Consult(ctx, inst, core.PM)
		if err != nil {
			t.Fatalf("Consult %v: %v", failed, err)
		}
		if outcome != want {
			t.Fatalf("Consult %v: outcome %v, want %v", failed, outcome, want)
		}
		if sol != nil {
			if err := sol.Verify(inst.Problem); err != nil {
				t.Fatalf("Consult %v: infeasible plan: %v", failed, err)
			}
		}
		return sol
	}

	hit := check([]int{3, 4}, OutcomeHit)
	inst34, _ := ctx.Build([]int{3, 4})
	want, err := core.PM(inst34.Problem)
	if err != nil {
		t.Fatalf("PM: %v", err)
	}
	if !samePlan(hit, want) {
		t.Fatal("exact hit differs from fresh PM solve")
	}

	fb := check([]int{3}, OutcomeFallback)
	// The repaired fallback must recover at least as much as the raw
	// projection: every switch the superset plan mapped stays mapped.
	inst3, _ := ctx.Build([]int{3})
	sup, _ := ctx.Build([]int{3, 4})
	proj, err := Project(sup, want, inst3)
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	for i, j := range proj.SwitchController {
		if j >= 0 && fb.SwitchController[i] != j {
			t.Fatalf("fallback dropped projected mapping of switch %d", i)
		}
	}

	if sol := check([]int{0}, OutcomeMiss); sol != nil {
		t.Fatal("miss returned a plan")
	}
}

// TestDecodeZeroAlloc pins the hit path's allocation contract: DecodeInto
// into a reused shell allocates nothing.
func TestDecodeZeroAlloc(t *testing.T) {
	path, _, ctx := compileDepth2(t)
	st, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	inst, err := ctx.Build([]int{1, 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rec, ok := st.Exact(inst.Failed)
	if !ok {
		t.Fatal("no exact record for {1,4}")
	}
	shell := core.NewSolution("", inst.Problem)
	allocs := testing.AllocsPerRun(100, func() {
		if err := st.DecodeInto(rec, inst, shell); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCorruption mirrors the WAL's corruption-suite semantics on the plan
// store: a truncated record tail is tolerated (Open succeeds, the clipped
// records report absent, intact ones still serve), while bit flips in the
// header, index, or an in-bounds record fail loudly.
func TestCorruption(t *testing.T) {
	path, _, ctx := compileDepth2(t)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	write := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mutated.pmps")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		return p
	}

	t.Run("TruncatedTail", func(t *testing.T) {
		st, err := Open(write(t, pristine[:len(pristine)-3]))
		if err != nil {
			t.Fatalf("Open after tail truncation: %v", err)
		}
		defer st.Close()
		absent, served := 0, 0
		for i := range st.keys {
			failed := failedSetOf(st.keys[i])
			if _, ok := st.Exact(failed); !ok {
				absent++
				continue
			}
			served++
			inst, err := ctx.Build(failed)
			if err != nil {
				t.Fatalf("Build %v: %v", failed, err)
			}
			if _, outcome, err := st.Consult(ctx, inst, core.PM); outcome != OutcomeHit || err != nil {
				t.Fatalf("intact record %v: outcome=%v err=%v", failed, outcome, err)
			}
		}
		if absent == 0 {
			t.Fatal("truncation clipped no record")
		}
		if served == 0 {
			t.Fatal("truncation should leave earlier records intact")
		}
	})

	t.Run("RecordBitFlip", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[len(b)-10] ^= 0x40 // inside the last record's payload
		st, err := Open(write(t, b))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		last := failedSetOf(st.keys[len(st.keys)-1])
		inst, err := ctx.Build(last)
		if err != nil {
			t.Fatalf("Build %v: %v", last, err)
		}
		if _, _, err := st.Consult(ctx, inst, core.PM); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit-flipped record served: err=%v, want ErrCorrupt", err)
		}
	})

	t.Run("HeaderBitFlip", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[17] ^= 0x01 // inside the topology hash
		if _, err := Open(write(t, b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with torn header: err=%v, want ErrCorrupt", err)
		}
	})

	t.Run("IndexBitFlip", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[hdrSize+entrySize+3] ^= 0x80 // second entry's key
		if _, err := Open(write(t, b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with torn index: err=%v, want ErrCorrupt", err)
		}
	})

	t.Run("TruncatedIndex", func(t *testing.T) {
		if _, err := Open(write(t, pristine[:hdrSize+entrySize/2])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with truncated index: err=%v, want ErrCorrupt", err)
		}
	})

	t.Run("BadMagic", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[0] ^= 0xFF
		if _, err := Open(write(t, b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with bad magic: err=%v, want ErrCorrupt", err)
		}
	})
}

// depth2SHA256 is the hash of the depth-2 store of the embedded ATT
// deployment (every set of one or two failed controllers). Compilation is
// deterministic by contract (DESIGN §14.1), so the bytes may not move with
// the sweep engine or GOMAXPROCS; a change to the format or to PM's plans
// moves them on purpose and re-pins this.
const depth2SHA256 = "e77cc358f5e4e8e2ce184407fb3cbad2b8a24e1106f63e277e1765ab07919704"

// TestCompileDeterministic: the depth-2 store compiles to the pinned bytes —
// the property that makes stores diffable and cacheable — whether the sweep
// runs on four procs or on one, and holds the 21 plans up to depth 2.
func TestCompileDeterministic(t *testing.T) {
	t.Run("Depth2FileIsPinnedAtAnyWorkerCount", func(t *testing.T) {
		dep, flows, ctx := attFixture(t)
		dir := t.TempDir()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{4, 1} {
			runtime.GOMAXPROCS(procs)
			path := filepath.Join(dir, fmt.Sprintf("att-p%d.pmps", procs))
			if _, err := Compile(dep, flows, path, CompileOptions{Sets: scenario.CombinationsUpTo(6, 2), Context: ctx}); err != nil {
				t.Fatalf("GOMAXPROCS %d: Compile: %v", procs, err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != depth2SHA256 {
				t.Errorf("GOMAXPROCS %d: file hash %x, want %s", procs, sum, depth2SHA256)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: Open: %v", procs, err)
			}
			if len(st.keys) != 21 || st.hdr.Depth != 2 {
				t.Errorf("GOMAXPROCS %d: %d plans up to depth %d, want 21 up to depth 2", procs, len(st.keys), st.hdr.Depth)
			}
			st.Close()
		}
	})
}
