package medic

import (
	"errors"
	"fmt"
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

// newPlanMedic is newIdleMedic with a plan store wired in.
func newPlanMedic(t *testing.T, rec *recorder, ps *planstore.Store) *Medic {
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
	return m
}

// TestPlanStoreServesMedic is the end-to-end contract of the plan store
// inside the daemon, driven pass by pass against a sparse
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
	m := newPlanMedic(t, rec, ps)
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
		step.ev.At = time.Now()
		st := drive(m, step.ev)
		if !st.Converged || st.Epoch != uint64(n+1) {
			t.Fatalf("%v: converged=%v at epoch %d", step.failed, st.Converged, st.Epoch)
		}
		var page strings.Builder
		if _, err := m.Metrics().WriteTo(&page); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			fmt.Sprintf("pmedicd_planstore_hits_total %d\n", step.hits),
			fmt.Sprintf("pmedicd_planstore_misses_total %d\n", step.misses),
			"pmedicd_planstore_errors_total 0\n",
		} {
			if !strings.Contains(page.String(), line) {
				t.Fatalf("after %v: /metrics lacks %q", step.failed, line)
			}
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
