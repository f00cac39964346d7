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

// CompileOptions tunes Compile. The zero value sweeps nothing; set Depth or
// Sets.
type CompileOptions struct {
	// Depth sweeps every failure combination of size 1..Depth (capped at
	// M-1). Ignored when Sets is non-nil.
	Depth int
	// Sets, when non-nil, names the exact failure sets to compile instead of
	// a full depth sweep — the sparse-store escape hatch for deployments
	// where only some combinations are credible (or affordable).
	Sets [][]int
	// Workers bounds the compile's solver concurrency; <= 0 selects one per
	// available CPU (eval.ForEachCase semantics).
	Workers int
	// Solve produces the plan for one compiled instance; nil selects
	// core.PM. It must be deterministic and safe for concurrent calls — the
	// store's contract is that a lookup reproduces a fresh solve bit for bit.
	Solve func(*core.Problem) (*core.Solution, error)
	// Algorithm names Solve in the file header (and in every decoded
	// solution); empty defaults to "PM".
	Algorithm string
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
// engine, solves each, and writes the plan store to path — temp file,
// fsync, rename, so a crash never leaves a half-written store behind. The
// sweep is deterministic: same deployment, workload, and options produce an
// identical file.
func Compile(dep *topo.Deployment, flows *flow.Set, path string, opts CompileOptions) (*CompileStats, error) {
	start := time.Now()
	m := len(dep.Controllers)
	if m > maxControllers {
		return nil, fmt.Errorf("planstore: %d controllers exceed the format's %d-controller key", m, maxControllers)
	}
	solve := opts.Solve
	if solve == nil {
		solve = core.PM
	}
	alg := opts.Algorithm
	if alg == "" {
		alg = "PM"
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
	if combos == nil {
		combos = scenario.CombinationsUpTo(m, opts.Depth)
	}
	if len(combos) == 0 {
		return nil, fmt.Errorf("planstore: nothing to compile (depth %d, %d explicit sets)", opts.Depth, len(opts.Sets))
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
	families := make([][2]bool, len(combos))
	err := eval.ForEachCase(ctx, combos, opts.Workers, func(idx int, inst *scenario.Instance) error {
		sol, err := solve(inst.Problem)
		if err != nil {
			return fmt.Errorf("planstore: case %v: %w", combos[idx], err)
		}
		payload, err := encodePlan(inst.Problem, sol)
		if err != nil {
			return fmt.Errorf("planstore: case %v: %w", combos[idx], err)
		}
		payloads[idx] = payload
		families[idx] = [2]bool{sol.SwitchLevel, sol.MiddleLayer}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for idx, f := range families {
		if f != families[0] {
			return nil, fmt.Errorf("planstore: case %v: mixed solution families in one store", combos[idx])
		}
	}

	hdr := Header{
		Version:        version,
		TopoHash:       TopoHash(dep, flows),
		NumControllers: m,
		NumEntries:     len(combos),
		Algorithm:      alg,
		SwitchLevel:    families[0][0],
		MiddleLayer:    families[0][1],
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
