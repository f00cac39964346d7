package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// TestOptimalPrintsExact: -algorithm optimal says whether its answer was
// proved and what the search cost; the heuristics print no such object.
// Failing the controller at site 16 is the one ATT case branch & bound
// settles at the root.
func TestOptimalPrintsExact(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-failed", "16", "-algorithm", "optimal"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc output
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%v in %s", err, buf.String())
	}
	e := doc.Exact
	if e == nil || doc.Metrics == nil {
		t.Fatalf("no exact object or no metrics in %s", buf.String())
	}
	if e.Status != "optimal" || !e.Proved || e.Nodes != 1 || e.Gap == nil || *e.Gap != 0 {
		t.Errorf("exact %+v: want optimal, proved, 1 node, gap 0", *e)
	}
	if e.Objective == nil || e.Bound == nil || *e.Objective != *e.Bound {
		t.Errorf("exact %+v: want objective = bound", *e)
	}
	if e.LP.Cold != 1 || e.LP.Iters == 0 || e.LP.Refactors == 0 {
		t.Errorf("lp work %+v: want one cold relaxation with iterations and a refactorization", e.LP)
	}

	buf.Reset()
	if err := run([]string{"-failed", "16"}, &buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"exact"`)) {
		t.Errorf("PM output carries an exact object: %s", buf.String())
	}
}

// TestNegativeOptTimeFailsFast: -opt-time below zero is refused at once, not
// read as no budget, which leaves branch & bound to its million-node cap.
func TestNegativeOptTimeFailsFast(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-failed", "13", "-algorithm", "optimal", "-opt-time", "-1s"}, io.Discard)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("-opt-time -1s: no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("-opt-time -1s: still solving after 30s")
	}
}

// TestPathCapIsNotAFlag: the workload's path-count cap is flow's default,
// which no flag sets.
func TestPathCapIsNotAFlag(t *testing.T) {
	err := run([]string{"-failed", "13", "-limit", "3"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -limit") {
		t.Fatalf("-limit 3: %v, want it refused as undefined", err)
	}
}
