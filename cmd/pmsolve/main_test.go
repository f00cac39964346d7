package main

import (
	"bytes"
	"encoding/json"
	"testing"
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
