package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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

// TestNegativeSettingsAreRefused: a negative duration or count is an error,
// not a setting the daemon reports and then runs as its default; the WAL's
// compaction threshold is the store's own, which no flag sets.
func TestNegativeSettingsAreRefused(t *testing.T) {
	for _, name := range []string{"-interval", "-timeout", "-jitter", "-debounce", "-threshold",
		"-lease-ttl", "-kill-after", "-revive-after", "-run-for"} {
		value := "-1s"
		if name == "-threshold" {
			value = "-2"
		}
		err := run([]string{"-dry-run", name, value}, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), name+" "+value) {
			t.Errorf("%s %s: %v, want it refused by name", name, value, err)
		}
	}
	err := run([]string{"-dry-run", "-compact-every", "8"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -compact-every") {
		t.Errorf("-compact-every 8: %v, want it refused as undefined", err)
	}
}
