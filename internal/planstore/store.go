package planstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"

	"pmedic/internal/core"
	"pmedic/internal/scenario"
)

// Store is an open plan-store file. The payload region stays memory-mapped
// (falling back to a plain read where mmap is unavailable), so lookups touch
// only the pages holding the hit record. A Store is immutable after Open and
// safe for concurrent use.
type Store struct {
	data   []byte
	mapped bool
	hdr    Header

	// keys holds the index keys ascending; entries[i] locates keys[i]'s
	// payload. ok is false for records past a truncated tail.
	keys    []uint64
	entries []entry

	// verified[i] latches after entries[i]'s payload CRC has checked out
	// once: the mapping is immutable and read-only, so re-hashing the same
	// bytes on every decode buys nothing on the failure path.
	verified []atomic.Bool
	// tmpl caches the per-problem decode preamble (see template).
	tmpl atomic.Pointer[template]
}

type entry struct {
	off    uint64
	length uint32
	crc    uint32
	ok     bool
}

// Rec is one indexed plan, located but not yet decoded. The payload is a
// view into the store's mapping; Decode verifies its CRC before first use.
type Rec struct {
	// Key is the failure-set bitmask the plan was compiled for.
	Key     uint64
	payload []byte
	crc     uint32
	idx     int
}

// FailedSet returns the record's failed controller indices, ascending.
func (r Rec) FailedSet() []int { return failedSetOf(r.Key) }

// Open maps the plan-store file and validates its header and index. A file
// whose record region is truncated still opens — the missing records simply
// report absent — but a torn header or index fails with ErrCorrupt: the
// index is the source of truth for every lookup, so it must be intact.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	size := int(fi.Size())

	data, mapped, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("planstore: mmap %s: %w", path, err)
	}
	if data == nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("planstore: %w", err)
		}
	}
	st := &Store{data: data, mapped: mapped}
	if err := st.parse(); err != nil {
		_ = st.Close()
		return nil, err
	}
	return st, nil
}

func (st *Store) parse() error {
	hdr, err := decodeHeader(st.data)
	if err != nil {
		return err
	}
	st.hdr = hdr
	idxEnd := hdrSize + hdr.NumEntries*entrySize
	if idxEnd+4 > len(st.data) {
		return fmt.Errorf("%w: index for %d entries truncated (%d bytes on disk)", ErrCorrupt, hdr.NumEntries, len(st.data))
	}
	idx := st.data[hdrSize:idxEnd]
	if sum := binary.BigEndian.Uint32(st.data[idxEnd:]); sum != checksum(idx) {
		return fmt.Errorf("%w: index CRC mismatch", ErrCorrupt)
	}
	recStart := uint64(idxEnd + 4)
	st.keys = make([]uint64, hdr.NumEntries)
	st.entries = make([]entry, hdr.NumEntries)
	st.verified = make([]atomic.Bool, hdr.NumEntries)
	for i := range st.entries {
		row := idx[i*entrySize:]
		e := entry{
			off:    binary.BigEndian.Uint64(row[8:]),
			length: binary.BigEndian.Uint32(row[16:]),
			crc:    binary.BigEndian.Uint32(row[20:]),
		}
		st.keys[i] = binary.BigEndian.Uint64(row)
		if i > 0 && st.keys[i] <= st.keys[i-1] {
			return fmt.Errorf("%w: index keys not strictly ascending at entry %d", ErrCorrupt, i)
		}
		// Records past the end of the file are a truncated tail: tolerated,
		// served as absent. An offset inside the header/index can only come
		// from corruption.
		if e.off < recStart {
			return fmt.Errorf("%w: entry %d offset %d inside index", ErrCorrupt, i, e.off)
		}
		e.ok = e.off <= uint64(len(st.data)) && uint64(e.length) <= uint64(len(st.data))-e.off
		st.entries[i] = e
	}
	return nil
}

// Close releases the mapping. Records obtained from the store must not be
// used after Close.
func (st *Store) Close() error {
	data := st.data
	st.data, st.keys, st.entries = nil, nil, nil
	if st.mapped && data != nil {
		st.mapped = false
		return munmap(data)
	}
	return nil
}

func (st *Store) rec(i int) Rec {
	e := st.entries[i]
	return Rec{Key: st.keys[i], payload: st.data[e.off : e.off+uint64(e.length)], crc: e.crc, idx: i}
}

// Exact locates the plan compiled for exactly this failure set by binary
// search over the sorted index. ok is false when the set was never compiled
// or its record fell past a truncated tail.
func (st *Store) Exact(failed []int) (Rec, bool) {
	key, ok := KeyOf(failed)
	if !ok {
		return Rec{}, false
	}
	// Hand-rolled binary search: sort.Search's closure call per probe is
	// measurable against a sub-microsecond lookup budget.
	lo, hi := 0, len(st.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(st.keys) || st.keys[lo] != key || !st.entries[lo].ok {
		return Rec{}, false
	}
	return st.rec(lo), true
}

// Superset locates the nearest compiled plan for a strict superset of the
// failure set: fewest extra failed controllers first, smallest key on ties,
// so the fallback repairs as little as possible. ok is false when no
// compiled set contains this one. Only Consult calls it, and Consult stays
// only because benchmark/storeatt.go links it (see project.go).
func (st *Store) Superset(failed []int) (Rec, bool) {
	key, ok := KeyOf(failed)
	if !ok {
		return Rec{}, false
	}
	best, bestPop := -1, maxControllers+1
	for i, k := range st.keys {
		if k == key || k&key != key || !st.entries[i].ok {
			continue
		}
		if pop := bits.OnesCount64(k); pop < bestPop {
			best, bestPop = i, pop
		}
	}
	if best < 0 {
		return Rec{}, false
	}
	return st.rec(best), true
}

// Decode materializes a record into a fresh solution for the instance the
// record was compiled for. The record's CRC is verified on first access: a
// bit flip anywhere in the payload fails with ErrCorrupt rather than
// yielding a plausible-but-wrong plan, and a clean verification latches —
// the mapping is immutable, so later decodes skip the hash.
func (st *Store) Decode(r Rec, inst *scenario.Instance) (*core.Solution, error) {
	sol := core.NewSolution(st.hdr.Algorithm, inst.Problem)
	if err := st.DecodeInto(r, inst, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// DecodeInto is Decode into a caller-provided solution shell sized for the
// instance — the zero-allocation hit path. The shell's Algorithm and family
// flags are overwritten from the store header.
func (st *Store) DecodeInto(r Rec, inst *scenario.Instance, sol *core.Solution) error {
	key, ok := KeyOf(inst.Failed)
	if !ok || key != r.Key {
		return fmt.Errorf("%w: record key %#x, instance failure set %v", ErrMismatch, r.Key, inst.Failed)
	}
	if !st.verified[r.idx].Load() {
		if checksum(r.payload) != r.crc {
			return fmt.Errorf("%w: record %#x payload CRC mismatch", ErrCorrupt, r.Key)
		}
		st.verified[r.idx].Store(true)
	}
	sol.Algorithm = st.hdr.Algorithm
	sol.SwitchLevel = st.hdr.SwitchLevel
	sol.MiddleLayer = st.hdr.MiddleLayer
	return decodePlanInto(st.templateFor(inst.Problem), r.payload, sol)
}

// templateFor returns the cached decode template for p, building and
// publishing a fresh one when the cached slot belongs to another instance.
func (st *Store) templateFor(p *core.Problem) *template {
	if t := st.tmpl.Load(); t != nil && t.p == p {
		return t
	}
	t := newTemplate(p)
	st.tmpl.Store(t)
	return t
}
