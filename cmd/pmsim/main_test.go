package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// figTables returns the CASE, PM, RetroFlow and PG columns (header row first)
// of the tables of one figure in pmsim's output, keyed by panel title. The
// runtime table under them, and any column to the right of PG, is left out.
func figTables(t *testing.T, out, fig string, panels, cases int) map[string][][]string {
	t.Helper()
	tables := make(map[string][][]string)
	title := ""
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, fig+"("):
			title = line
		case strings.HasPrefix(line, "Fig.") || strings.HasPrefix(line, "===="):
			title = ""
		case title != "" && strings.HasPrefix(line, "CASE"):
			tables[title] = append(tables[title], strings.Fields(line)[:4])
		case title != "" && strings.HasPrefix(line, "("):
			// A case label holds spaces from two failures up: "(13, 16)".
			end := strings.Index(line, ")") + 1
			tables[title] = append(tables[title], append([]string{line[:end]}, strings.Fields(line[end:])[:3]...))
		}
	}
	if len(tables) != panels {
		t.Fatalf("found %d %s tables, want %d panels", len(tables), fig, panels)
	}
	for title, rows := range tables {
		if len(rows) != 1+cases {
			t.Fatalf("%s: %d rows, want a header and %d cases", title, len(rows), cases)
		}
	}
	return tables
}

// TestTablesMatchCommittedRun drives the figure path end to end: the tables
// of Fig. 4(a)–(d), 5(a)–(f) and 6(a)–(f) are the same at any worker count
// and equal to the committed full run's, Optimal column aside. Every cell is
// a Report field as printed, so this is the byte-level guard on Evaluate.
func TestTablesMatchCommittedRun(t *testing.T) {
	committed, err := os.ReadFile("../../pmsim_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		scenario, fig string
		panels, cases int
	}{
		{"1", "Fig. 4", 4, 6},
		{"2", "Fig. 5", 6, 15},
		{"3", "Fig. 6", 6, 20},
	} {
		want := figTables(t, string(committed), sc.fig, sc.panels, sc.cases)
		for _, workers := range []string{"1", "8"} {
			var out bytes.Buffer
			if err := run([]string{"-scenario", sc.scenario, "-skip-optimal", "-workers", workers}, &out); err != nil {
				t.Fatal(err)
			}
			if got := figTables(t, out.String(), sc.fig, sc.panels, sc.cases); !reflect.DeepEqual(got, want) {
				t.Errorf("-scenario %s -workers %s: %s tables differ from pmsim_full.txt:\n%s", sc.scenario, workers, sc.fig, out.String())
			}
		}
	}
}
