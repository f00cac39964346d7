package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pmedic/internal/flow"
	"pmedic/internal/planstore"
	"pmedic/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// ephemeral masks what differs between two runs of the same command: the
// ports the agents and echo endpoints bind, and the pid in the default
// replica name.
var ephemeral = regexp.MustCompile(`127\.0\.0\.1:\d+|pmedicd-\d+`)

// golden runs pmedicd with args and compares its output, masked, with
// testdata/name; -update rewrites the file instead.
func golden(t *testing.T, name string, args []string, mask map[string]string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := ephemeral.ReplaceAllStringFunc(out.String(), func(s string) string {
		if strings.HasPrefix(s, "pmedicd-") {
			return "pmedicd-<pid>"
		}
		return "127.0.0.1:<port>"
	})
	for from, to := range mask {
		got = strings.ReplaceAll(got, from, to)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("pmedicd %s differs from %s:\n%s", strings.Join(args, " "), path, got)
	}
}

func TestDryRunIsPinned(t *testing.T) {
	golden(t, "dry-run.txt", []string{"-dry-run"}, nil)
}

func TestDryRunWithStateDirIsPinned(t *testing.T) {
	dir := t.TempDir()
	golden(t, "dry-run-state-dir.txt", []string{"-dry-run", "-state-dir", dir}, map[string]string{dir: "<state-dir>"})
}

func TestKillOutOfRangeIsRefused(t *testing.T) {
	err := run([]string{"-dry-run", "-kill", "9"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "controller 9 out of range") {
		t.Fatalf("-kill 9: %v, want the out-of-range error", err)
	}
}

// TestMismatchedPlanStoreRefusesBoot: a plan store compiled for another
// workload stops the boot with an error that names the mismatch.
func TestMismatchedPlanStoreRefusesBoot(t *testing.T) {
	dep, err := topo.ATT()
	if err != nil {
		t.Fatal(err)
	}
	other, err := flow.Generate(dep.Graph, flow.Options{Slack: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.pmps")
	if _, err := planstore.Compile(dep, other, path, planstore.CompileOptions{Sets: [][]int{{3}}}); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-dry-run", "-plan-store", path}, new(bytes.Buffer))
	if !errors.Is(err, planstore.ErrMismatch) || !strings.Contains(err.Error(), "topology hash") {
		t.Fatalf("-plan-store compiled for another workload: %v, want a refused boot naming the mismatch", err)
	}
}
