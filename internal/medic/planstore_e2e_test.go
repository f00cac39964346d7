package medic

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/flow"
	"pmedic/internal/monitor"
	"pmedic/internal/planstore"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// newPlanMedic is newTestMedic with a plan store wired in.
func newPlanMedic(t *testing.T, rec *recorder, ps *planstore.Store) (*Medic, chan monitor.Event) {
	t.Helper()
	dep, flows := testFixture(t)
	m, err := New(Config{
		Dep:      dep,
		Flows:    flows,
		Addrs:    map[topo.NodeID]string{0: "stubbed"},
		Pusher:   rec.push,
		Restorer: rec.restore,
		Plans:    ps,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan monitor.Event, 8)
	m.Start(events)
	t.Cleanup(m.Stop)
	return m, events
}

// TestPlanStoreServesMedic is the end-to-end contract of the plan store
// inside the daemon, driven through the reconcile loop against a sparse
// store holding only the {3,4} plan:
//
//   - a precompiled failure set is served as a hit, and the pushed plan is
//     byte-identical to what a fresh PM solve would have produced;
//   - a subset of a compiled set ({3}) is served as a projected+repaired
//     fallback that stays feasible;
//   - a set no compiled plan covers ({0,3}) is a miss and degrades to the
//     ordinary solve path.
func TestPlanStoreServesMedic(t *testing.T) {
	dep, flows := testFixture(t)
	path := filepath.Join(t.TempDir(), "att.pmps")
	if _, err := planstore.Compile(dep, flows, path, planstore.CompileOptions{Sets: [][]int{{3, 4}}}); err != nil {
		t.Fatal(err)
	}
	ps, err := planstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ps.Close() })

	rec := &recorder{}
	m, events := newPlanMedic(t, rec, ps)

	// Hit: the correlated pair {3,4} was precompiled.
	events <- monitor.Event{Seq: 1, Failed: []int{3, 4}, At: time.Now()}
	st := waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 1 })
	hits, fallbacks, misses, errs := m.Metrics().PlanStoreCounts()
	if hits != 1 || fallbacks != 0 || misses != 0 || errs != 0 {
		t.Fatalf("after hit: hits=%d fallbacks=%d misses=%d errors=%d, want 1/0/0/0", hits, fallbacks, misses, errs)
	}
	if !hasLogKind(st, KindPlan, "served from the plan store") {
		t.Fatalf("no plan-store hit log entry in %+v", st.Events)
	}
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ctx.Build([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.PM(inst.Problem)
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	got := rec.sols[0]
	rec.mu.Unlock()
	if got.Algorithm != want.Algorithm ||
		!reflect.DeepEqual(got.SwitchController, want.SwitchController) ||
		!reflect.DeepEqual(got.Active, want.Active) {
		t.Fatalf("stored plan for {3,4} is not byte-identical to a fresh PM solve:\n got %v\nwant %v",
			got.SwitchController, want.SwitchController)
	}

	// Fallback: {3} was never compiled, but {3,4} is a strict superset.
	events <- monitor.Event{Seq: 2, Recovered: []int{4}, At: time.Now()}
	st = waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 2 })
	hits, fallbacks, misses, errs = m.Metrics().PlanStoreCounts()
	if hits != 1 || fallbacks != 1 || misses != 0 || errs != 0 {
		t.Fatalf("after fallback: hits=%d fallbacks=%d misses=%d errors=%d, want 1/1/0/0", hits, fallbacks, misses, errs)
	}
	if !hasLogKind(st, KindPlan, "projected from a precompiled superset plan") {
		t.Fatalf("no plan-store fallback log entry in %+v", st.Events)
	}
	sub, err := ctx.Build([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	fb := rec.sols[1]
	rec.mu.Unlock()
	loads, err := fb.ControllerLoads(sub.Problem)
	if err != nil {
		t.Fatal(err)
	}
	for j, l := range loads {
		if l > sub.Problem.Rest[j] {
			t.Fatalf("fallback plan overloads controller %d: %d > rest %d", j, l, sub.Problem.Rest[j])
		}
	}

	// Miss: {0,3} has no compiled plan and no compiled superset.
	events <- monitor.Event{Seq: 3, Failed: []int{0}, At: time.Now()}
	waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == 3 })
	hits, fallbacks, misses, errs = m.Metrics().PlanStoreCounts()
	if hits != 1 || fallbacks != 1 || misses != 1 || errs != 0 {
		t.Fatalf("after miss: hits=%d fallbacks=%d misses=%d errors=%d, want 1/1/1/0", hits, fallbacks, misses, errs)
	}
}

// TestPlanStoreHashMismatchRefused: a store compiled for a different
// workload is refused at New, with an error that names the mismatch.
func TestPlanStoreHashMismatchRefused(t *testing.T) {
	dep, flows := testFixture(t)
	other, err := flow.Generate(dep.Graph, flow.Options{Slack: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.pmps")
	if _, err := planstore.Compile(dep, other, path, planstore.CompileOptions{Sets: [][]int{{3}}}); err != nil {
		t.Fatal(err)
	}
	ps, err := planstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ps.Close() })

	_, err = New(Config{Dep: dep, Flows: flows, Addrs: map[topo.NodeID]string{0: "stubbed"}, Plans: ps})
	if !errors.Is(err, planstore.ErrMismatch) || !strings.Contains(err.Error(), "topology hash") {
		t.Fatalf("New with a mismatched plan store: %v, want an error wrapping planstore.ErrMismatch", err)
	}
}
