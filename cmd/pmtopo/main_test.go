package main

import (
	"bytes"
	"os"
	"testing"
)

// TestATTTableIsPinned compares the default output — per-node γ, Σγ and the
// controllers' domain loads, all read off the switch index's offsets — with
// the committed table.
func TestATTTableIsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/att.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("pmtopo output differs from testdata/att.txt:\n%s", out.String())
	}
}
