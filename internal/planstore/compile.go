package planstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmedic/internal/core"
	"pmedic/internal/eval"
	"pmedic/internal/flow"
	"pmedic/internal/scenario"
	"pmedic/internal/topo"
)

// CompileOptions tunes Compile.
type CompileOptions struct {
	// Sets names the failure sets to compile: every combination up to a
	// depth (scenario.CombinationsUpTo), or only the credible ones.
	Sets [][]int
	// Context, when non-nil, supplies the precomputed scenario state; nil
	// builds one.
	Context *scenario.Context
}

// CompileStats summarizes a finished compile.
type CompileStats struct {
	// Entries is the number of plans written; Depth the largest failure-set
	// size among them.
	Entries int
	Depth   int
	// Bytes is the file size, PayloadBytes the delta-record share of it —
	// the compression the delta encoding achieves is visible as
	// PayloadBytes/Entries against the dense solution size.
	Bytes        int64
	PayloadBytes int64
	// TopoHash is the header's deployment fingerprint.
	TopoHash uint64
	Elapsed  time.Duration
}

// Compile sweeps the requested failure combinations with the parallel sweep
// engine (GOMAXPROCS workers), solves each with core.PM, and writes the plan
// store to path — temp file, fsync, rename, so a crash never leaves a
// half-written store behind. The sweep is deterministic: same deployment,
// workload, and options produce an identical file.
func Compile(dep *topo.Deployment, flows *flow.Set, path string, opts CompileOptions) (*CompileStats, error) {
	start := time.Now()
	m := len(dep.Controllers)
	if m > maxControllers {
		return nil, fmt.Errorf("planstore: %d controllers exceed the format's %d-controller key", m, maxControllers)
	}
	ctx := opts.Context
	if ctx == nil {
		var err error
		ctx, err = scenario.NewContext(dep, flows)
		if err != nil {
			return nil, fmt.Errorf("planstore: %w", err)
		}
	}

	combos := opts.Sets
	if len(combos) == 0 {
		return nil, fmt.Errorf("planstore: no failure sets to compile")
	}
	keys := make([]uint64, len(combos))
	seen := make(map[uint64]int, len(combos))
	for idx, failed := range combos {
		key, ok := KeyOf(failed)
		if !ok {
			return nil, fmt.Errorf("planstore: invalid failure set %v", failed)
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("planstore: failure sets %v and %v collide", combos[prev], failed)
		}
		seen[key] = idx
		keys[idx] = key
	}

	// Solve and delta-encode every case in parallel; slots keep the results
	// in enumeration order so the file is deterministic.
	payloads := make([][]byte, len(combos))
	err := eval.ForEachCase(ctx, combos, func(idx int, inst *scenario.Instance) error {
		sol, err := core.PM(inst.Problem)
		if err != nil {
			return fmt.Errorf("planstore: case %v: %w", combos[idx], err)
		}
		payload, err := encodePlan(inst.Problem, sol)
		if err != nil {
			return fmt.Errorf("planstore: case %v: %w", combos[idx], err)
		}
		payloads[idx] = payload
		return nil
	})
	if err != nil {
		return nil, err
	}

	hdr := Header{
		Version:        version,
		TopoHash:       TopoHash(dep, flows),
		NumControllers: m,
		NumEntries:     len(combos),
		Algorithm:      "PM",
	}
	order := make([]int, len(combos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var payloadBytes int64
	for idx, key := range keys {
		if d := bits.OnesCount64(key); d > hdr.Depth {
			hdr.Depth = d
		}
		payloadBytes += int64(len(payloads[idx]))
	}

	head, err := encodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	idxEnd := hdrSize + len(combos)*entrySize
	file := make([]byte, 0, idxEnd+4+int(payloadBytes))
	file = append(file, head...)
	off := uint64(idxEnd + 4)
	for _, idx := range order {
		var row [entrySize]byte
		binary.BigEndian.PutUint64(row[0:], keys[idx])
		binary.BigEndian.PutUint64(row[8:], off)
		binary.BigEndian.PutUint32(row[16:], uint32(len(payloads[idx])))
		binary.BigEndian.PutUint32(row[20:], checksum(payloads[idx]))
		file = append(file, row[:]...)
		off += uint64(len(payloads[idx]))
	}
	file = binary.BigEndian.AppendUint32(file, checksum(file[hdrSize:idxEnd]))
	for _, idx := range order {
		file = append(file, payloads[idx]...)
	}

	if err := writeAtomic(path, file); err != nil {
		return nil, err
	}
	return &CompileStats{
		Entries:      len(combos),
		Depth:        hdr.Depth,
		Bytes:        int64(len(file)),
		PayloadBytes: payloadBytes,
		TopoHash:     hdr.TopoHash,
		Elapsed:      time.Since(start),
	}, nil
}

// writeAtomic lands the bytes at path via temp file + fsync + rename: the
// same crash-safety discipline the snapshot store uses.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("planstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("planstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("planstore: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
