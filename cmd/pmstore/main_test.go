package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// depth2SHA256 is the hash of the file `pmstore -depth 2` writes for the
// embedded ATT deployment, taken at PR 18's commit. Compilation is
// deterministic by contract (DESIGN §14.1), so the bytes may not move with the
// sweep engine or its worker count; a change to the format or to PM's plans
// moves them on purpose and re-pins this.
const depth2SHA256 = "e77cc358f5e4e8e2ce184407fb3cbad2b8a24e1106f63e277e1765ab07919704"

// TestDepth2FileIsPinnedAtAnyWorkerCount compiles with the sweep on one proc
// and on eight.
func TestDepth2FileIsPinnedAtAnyWorkerCount(t *testing.T) {
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		path := filepath.Join(dir, "att-w"+strconv.Itoa(workers)+".pmps")
		if err := run([]string{"-out", path, "-depth", "2"}, io.Discard); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file)
		if got := hex.EncodeToString(sum[:]); got != depth2SHA256 {
			t.Errorf("GOMAXPROCS %d: file hash %s, want %s", workers, got, depth2SHA256)
		}
		var info bytes.Buffer
		if err := run([]string{"-info", path}, &info); err != nil {
			t.Fatalf("-info on the file just written: %v", err)
		}
		if !bytes.Contains(info.Bytes(), []byte("21 plans up to depth 2")) {
			t.Errorf("GOMAXPROCS %d: -info printed %q", workers, info.String())
		}
	}
}
