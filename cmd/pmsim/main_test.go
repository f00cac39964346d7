package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
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
// of Fig. 4(a)–(d), 5(a)–(f) and 6(a)–(f) are the same with the sweep on one
// proc or on eight and equal to the committed full run's, Optimal column
// aside. Every cell is a Report field as printed, so this is the byte-level
// guard on Evaluate.
func TestTablesMatchCommittedRun(t *testing.T) {
	committed, err := os.ReadFile("../../pmsim_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range []struct {
		scenario, fig string
		panels, cases int
	}{
		{"1", "Fig. 4", 4, 6},
		{"2", "Fig. 5", 6, 15},
		{"3", "Fig. 6", 6, 20},
	} {
		want := figTables(t, string(committed), sc.fig, sc.panels, sc.cases)
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			var out bytes.Buffer
			if err := run([]string{"-scenario", sc.scenario, "-skip-optimal"}, &out); err != nil {
				t.Fatal(err)
			}
			if got := figTables(t, out.String(), sc.fig, sc.panels, sc.cases); !reflect.DeepEqual(got, want) {
				t.Errorf("-scenario %s at GOMAXPROCS %d: %s tables differ from pmsim_full.txt:\n%s", sc.scenario, procs, sc.fig, out.String())
			}
		}
	}
}

// cellSep is the padding tabwriter puts between two printed cells; a case
// label holds single spaces only ("(13, 16)").
var cellSep = regexp.MustCompile(`  +`)

// printedTables returns every table of pmsim's output, keyed by the title
// printed above it: the header row, then one row per case, cell by cell.
func printedTables(out string) map[string][][]string {
	tables := make(map[string][][]string)
	lines := strings.Split(out, "\n")
	for i := 0; i+1 < len(lines); i++ {
		title := lines[i]
		if title == "" || lines[i+1] != strings.Repeat("-", len(title)) {
			continue
		}
		var rows [][]string
		for i += 2; i < len(lines) && lines[i] != ""; i++ {
			rows = append(rows, cellSep.Split(lines[i], -1))
		}
		tables[title] = rows
	}
	return tables
}

// TestCSVMatchesTables: -csv writes one file per printed panel, named with
// the panel's letter (the runtime table: fig<N>_runtime.csv), holding the
// printed header and cells, cell for cell.
func TestCSVMatchesTables(t *testing.T) {
	for _, sc := range []struct {
		scenario    string
		fig, tables int
	}{
		{"1", 4, 5},
		{"2", 5, 7},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run([]string{"-scenario", sc.scenario, "-skip-optimal", "-csv", dir}, &out); err != nil {
			t.Fatal(err)
		}
		tables := printedTables(out.String())
		if len(tables) != sc.tables {
			t.Fatalf("-scenario %s printed %d tables, want %d", sc.scenario, len(tables), sc.tables)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(tables) {
			t.Errorf("-scenario %s wrote %d CSV files for %d printed tables", sc.scenario, len(files), len(tables))
		}
		for title, rows := range tables {
			name := fmt.Sprintf("fig%d_runtime.csv", sc.fig)
			if rest, ok := strings.CutPrefix(title, fmt.Sprintf("Fig. %d(", sc.fig)); ok {
				matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("fig%d%c_*.csv", sc.fig, rest[0])))
				if err != nil || len(matches) != 1 {
					t.Errorf("%s: CSV files %v, want one", title, matches)
					continue
				}
				name = filepath.Base(matches[0])
			} else if title != "Fig. 7 input: computation time" {
				t.Errorf("-scenario %s printed an unexpected table %q", sc.scenario, title)
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Errorf("%s: %v", title, err)
				continue
			}
			got, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				t.Errorf("%s: %v", name, err)
			} else if !reflect.DeepEqual(got, rows) {
				t.Errorf("%s: %s holds\n%q\nprinted\n%q", title, name, got, rows)
			}
		}
	}
}

// TestNegativeSettingsAreRefused: a negative Optimal time budget is an
// error, not an unbounded exact solve, and λ is a constant no flag sets.
func TestNegativeSettingsAreRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "1", "-skip-optimal", "-lambda", "0.1"}, "flag provided but not defined: -lambda"},
		{[]string{"-scenario", "1", "-opt-time", "-1s"}, ""},
	} {
		args := tc.args
		done := make(chan error, 1)
		go func() { done <- run(args, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want one containing %q", args, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30s", args)
		}
	}
}
