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
// store holding only the {3,4} plan: the daemon adopts a stored exact plan
// or a solve, nothing else.
//
//   - a precompiled failure set is served as a hit;
//   - a subset of a compiled set ({3}) and a set no compiled plan covers
//     ({0,3}) are misses that pay the ordinary solve;
//   - every pushed plan is byte-identical to a fresh PM solve of its set,
//     and /metrics counts hits, misses and errors, no fallbacks.
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
	ctx, err := scenario.NewContext(dep, flows)
	if err != nil {
		t.Fatal(err)
	}

	rec := &recorder{}
	m, events := newPlanMedic(t, rec, ps)
	steps := []struct {
		ev           monitor.Event
		failed       []int
		hits, misses uint64
		log          string
	}{
		{monitor.Event{Seq: 1, Failed: []int{3, 4}}, []int{3, 4}, 1, 0, "served from the plan store"},
		{monitor.Event{Seq: 2, Recovered: []int{4}}, []int{3}, 1, 1, ""},
		{monitor.Event{Seq: 3, Failed: []int{0}}, []int{0, 3}, 1, 2, ""},
	}
	for n, step := range steps {
		epoch := uint64(n + 1)
		step.ev.At = time.Now()
		events <- step.ev
		st := waitStatus(t, m, func(s Status) bool { return s.Converged && s.Epoch == epoch })
		hits, misses, errs := m.Metrics().PlanStoreCounts()
		if hits != step.hits || misses != step.misses || errs != 0 {
			t.Fatalf("after %v: hits=%d misses=%d errors=%d, want %d/%d/0", step.failed, hits, misses, errs, step.hits, step.misses)
		}
		if step.log != "" && !hasLogKind(st, KindPlan, step.log) {
			t.Fatalf("%v: no %q log entry in %+v", step.failed, step.log, st.Events)
		}
		inst, err := ctx.Build(step.failed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.PM(inst.Problem)
		if err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		got := rec.sols[n]
		rec.mu.Unlock()
		if got.Algorithm != want.Algorithm ||
			!reflect.DeepEqual(got.SwitchController, want.SwitchController) ||
			!reflect.DeepEqual(got.Active, want.Active) {
			t.Fatalf("plan for %v is not byte-identical to a fresh PM solve:\n got %v\nwant %v",
				step.failed, got.SwitchController, want.SwitchController)
		}
	}

	var page strings.Builder
	if _, err := m.Metrics().WriteTo(&page); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"pmedicd_planstore_hits_total 1\n", "pmedicd_planstore_misses_total 2\n", "pmedicd_planstore_errors_total 0\n"} {
		if !strings.Contains(page.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if strings.Contains(page.String(), "fallback") {
		t.Errorf("/metrics renders a plan-store fallback counter:\n%s", page.String())
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
