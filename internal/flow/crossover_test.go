package flow_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pmedic/internal/flow"
	"pmedic/internal/israce"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// TestParallelCrossoverTable regenerates the table behind parallelMinNodes
// (DESIGN.md §13.1): per graph size, the fastest of several start-ups —
// flow.Generate then scenario.NewContext — with every per-node pass on the
// calling goroutine, and with every one fanned out at GOMAXPROCS. The rows
// alternate the two so that a noisy neighbour hits both. It asserts only
// which side of the threshold ATT and the 1000-node scale-syn fixture fall
// on, under -short and -race too; the times it logs (go test -run
// TestParallelCrossoverTable -v ./internal/flow/) are read on a quiet
// machine.
func TestParallelCrossoverTable(t *testing.T) {
	att, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	if w := flow.Workers(att.Graph.NumNodes()); w != 1 {
		t.Fatalf("ATT's %d nodes run start-up on %d workers, want the calling goroutine", att.Graph.NumNodes(), w)
	}
	if w := flow.Workers(1000); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("the 1000-node scale-syn fixture runs start-up on %d workers, want GOMAXPROCS", w)
	}
	if testing.Short() || israce.Enabled {
		t.Skip("times start-ups up to 500 nodes")
	}

	startUp := func(dep *topo.Deployment) time.Duration {
		t0 := time.Now()
		flows, err := flow.Generate(dep.Graph, flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.NewContext(dep, flows); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	defer flow.SetParallelMinNodes(flow.SetParallelMinNodes(0))
	t.Logf("%6s | %10s | %10s | %6s", "nodes", "serial ms", "fan-out ms", "ratio")
	for _, n := range []int{25, 32, 48, 64, 128, 256, 500} {
		dep := att
		if n != att.Graph.NumNodes() {
			if dep, err = topo.SyntheticWithOpts(n, 4, 1, topo.SyntheticOpts{Seed: 1, Regions: 2}); err != nil {
				t.Fatal(err)
			}
		}
		serial, fanOut := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range max(5, 200_000/(n*n)) {
			flow.SetParallelMinNodes(math.MaxInt)
			serial = min(serial, startUp(dep))
			flow.SetParallelMinNodes(0)
			fanOut = min(fanOut, startUp(dep))
		}
		t.Logf("%6d | %10.2f | %10.2f | %6.2f", n, serial.Seconds()*1e3, fanOut.Seconds()*1e3, fanOut.Seconds()/serial.Seconds())
	}
}
