package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fig4Tables returns the CASE, PM, RetroFlow and PG columns (header row
// first) of the Fig. 4(a)–(d) tables in pmsim's output, keyed by panel title.
// The runtime table under them, and any column to the right of PG, is left
// out.
func fig4Tables(t *testing.T, out string) map[string][][]string {
	t.Helper()
	tables := make(map[string][][]string)
	title := ""
	for _, line := range strings.Split(out, "\n") {
		switch fields := strings.Fields(line); {
		case strings.HasPrefix(line, "Fig. 4("):
			title = line
		case strings.HasPrefix(line, "Fig.") || strings.HasPrefix(line, "===="):
			title = ""
		case title != "" && len(fields) >= 4:
			tables[title] = append(tables[title], fields[:4])
		}
	}
	if len(tables) != 4 {
		t.Fatalf("found %d Fig. 4 tables, want panels (a)-(d)", len(tables))
	}
	for title, rows := range tables {
		if len(rows) != 7 {
			t.Fatalf("%s: %d rows, want a header and 6 cases", title, len(rows))
		}
	}
	return tables
}

// TestScenario1TablesMatchCommittedRun drives the figure path end to end:
// the single-failure tables are the same at any worker count and equal to the
// committed full run's, Optimal column aside.
func TestScenario1TablesMatchCommittedRun(t *testing.T) {
	committed, err := os.ReadFile("../../pmsim_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := fig4Tables(t, string(committed))
	for _, workers := range []string{"1", "8"} {
		var out bytes.Buffer
		if err := run([]string{"-scenario", "1", "-skip-optimal", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		if got := fig4Tables(t, out.String()); !reflect.DeepEqual(got, want) {
			t.Errorf("-workers %s: Fig. 4 tables differ from pmsim_full.txt:\n%s", workers, out.String())
		}
	}
}
