// Package planstore turns failure recovery into an O(1) lookup: an offline
// compiler sweeps the failure combinations it is given with the parallel
// sweep engine, delta-encodes each solution against the instance's ideal
// (nearest-controller) mapping, and writes one versioned, CRC-framed binary
// file. A reader memory-maps the file and serves plans by binary search over
// the sorted failure-set index plus delta application — no optimization on
// the failure path. A combination the compiler never saw is a miss, and the
// caller solves it.
//
// File layout (all integers big-endian, matching internal/store's framing):
//
//	header   56 B   magic, version, flags, M, topology hash, depth,
//	                entry count, algorithm name, CRC32 over the first 52 B
//	index    24 B × numEntries, sorted ascending by key; each entry is
//	                [key u64][offset u64][length u32][payload CRC32 u32]
//	indexCRC  4 B   CRC32 over the raw index block
//	records  ...    varint delta payloads, pointed at by the index
//
// A failure set's key is the bitmask of its failed controllers' deployment
// indices (the format therefore caps deployments at 64 controllers — far
// above the paper's 6). Corruption semantics mirror the WAL's: a truncated
// record tail is tolerated (Open succeeds, lookups of the missing records
// report absent), while a torn header, index, or in-bounds payload whose CRC
// mismatches fails loudly with ErrCorrupt instead of serving a wrong plan.
package planstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"pmedic/internal/core"
)

const (
	// magic spells "PMPS" (ProgrammabilityMedic Plan Store).
	magic   = uint32(0x504D5053)
	version = uint32(1)

	hdrSize   = 56
	entrySize = 24
	// hdrCRCOff is where the header's own CRC lives; it covers [0, hdrCRCOff).
	hdrCRCOff = 52

	// maxAlgLen bounds the NUL-padded algorithm name field.
	maxAlgLen = 16

	// maxControllers is the format's controller-count cap: keys are one
	// 64-bit failure bitmask.
	maxControllers = 64

	// Flag bits record the solution family shared by every plan in the file.
	flagSwitchLevel = uint32(1 << 0)
	flagMiddleLayer = uint32(1 << 1)
)

// ErrCorrupt reports a plan-store file whose bytes fail validation: bad
// magic, torn header or index, or an in-bounds record whose CRC mismatches.
var ErrCorrupt = errors.New("planstore: corrupt plan store")

// ErrMismatch reports a store consulted against a deployment or instance it
// was not compiled for (topology hash or failure-set key disagreement).
var ErrMismatch = errors.New("planstore: store does not match instance")

// Header describes a plan-store file.
type Header struct {
	Version uint32
	// TopoHash fingerprints the deployment and workload the store was
	// compiled against; readers refuse stores whose hash mismatches theirs.
	TopoHash uint64
	// NumControllers is the deployment's controller count M.
	NumControllers int
	// Depth is the largest failure-set size among the compiled entries.
	Depth int
	// NumEntries counts the indexed failure sets.
	NumEntries int
	// Algorithm names the solver that produced every plan, e.g. "PM".
	Algorithm string
	// SwitchLevel and MiddleLayer record the solution family (see
	// core.Solution); PM plans leave both false.
	SwitchLevel bool
	MiddleLayer bool
}

func (h Header) flags() uint32 {
	var f uint32
	if h.SwitchLevel {
		f |= flagSwitchLevel
	}
	if h.MiddleLayer {
		f |= flagMiddleLayer
	}
	return f
}

// encodeHeader lays the header out into a 56-byte block, CRC included.
func encodeHeader(h Header) ([]byte, error) {
	if len(h.Algorithm) > maxAlgLen {
		return nil, fmt.Errorf("planstore: algorithm name %q longer than %d bytes", h.Algorithm, maxAlgLen)
	}
	buf := make([]byte, hdrSize)
	binary.BigEndian.PutUint32(buf[0:], magic)
	binary.BigEndian.PutUint32(buf[4:], version)
	binary.BigEndian.PutUint32(buf[8:], h.flags())
	binary.BigEndian.PutUint32(buf[12:], uint32(h.NumControllers))
	binary.BigEndian.PutUint64(buf[16:], h.TopoHash)
	binary.BigEndian.PutUint32(buf[24:], uint32(h.Depth))
	binary.BigEndian.PutUint32(buf[28:], uint32(h.NumEntries))
	copy(buf[32:32+maxAlgLen], h.Algorithm)
	binary.BigEndian.PutUint32(buf[hdrCRCOff:], checksum(buf[:hdrCRCOff]))
	return buf, nil
}

// decodeHeader validates and parses the 56-byte header block.
func decodeHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < hdrSize {
		return h, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), hdrSize)
	}
	if got := binary.BigEndian.Uint32(data[0:]); got != magic {
		return h, fmt.Errorf("%w: bad magic 0x%08X", ErrCorrupt, got)
	}
	if sum := binary.BigEndian.Uint32(data[hdrCRCOff:]); sum != checksum(data[:hdrCRCOff]) {
		return h, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	h.Version = binary.BigEndian.Uint32(data[4:])
	if h.Version != version {
		return h, fmt.Errorf("planstore: unsupported version %d (reader speaks %d)", h.Version, version)
	}
	flags := binary.BigEndian.Uint32(data[8:])
	h.SwitchLevel = flags&flagSwitchLevel != 0
	h.MiddleLayer = flags&flagMiddleLayer != 0
	h.NumControllers = int(binary.BigEndian.Uint32(data[12:]))
	h.TopoHash = binary.BigEndian.Uint64(data[16:])
	h.Depth = int(binary.BigEndian.Uint32(data[24:]))
	h.NumEntries = int(binary.BigEndian.Uint32(data[28:]))
	h.Algorithm = strings.TrimRight(string(data[32:32+maxAlgLen]), "\x00")
	if h.NumControllers <= 0 || h.NumControllers > maxControllers {
		return h, fmt.Errorf("%w: %d controllers (format caps at %d)", ErrCorrupt, h.NumControllers, maxControllers)
	}
	return h, nil
}

// KeyOf encodes a failure set as its index key: the bitmask of the failed
// controllers' deployment indices. ok is false when an index is out of the
// format's range.
func KeyOf(failed []int) (key uint64, ok bool) {
	for _, j := range failed {
		if j < 0 || j >= maxControllers {
			return 0, false
		}
		key |= 1 << uint(j)
	}
	return key, len(failed) > 0
}

// failedSetOf decodes a key back into ascending controller indices.
func failedSetOf(key uint64) []int {
	out := make([]int, 0, bits.OnesCount64(key))
	for k := key; k != 0; k &= k - 1 {
		out = append(out, bits.TrailingZeros64(k))
	}
	return out
}

// baselineController returns the ideal mapping for offline switch i: the
// nearest active controller, lowest index on delay ties — exactly
// Problem.NearestControllers(i)[0], without the sort. Both the encoder and
// the decoder derive the baseline from the instance, so only deviations
// travel in the file.
func baselineController(p *core.Problem, i int) int {
	row := p.Delay[i]
	best := 0
	for j := 1; j < p.NumControllers; j++ {
		if row[j] < row[best] {
			best = j
		}
	}
	return best
}

// template caches the per-problem decode preamble: the baseline mapping and
// the all-true activation fill, both pure functions of the instance. Building
// them per decode is a third of the lookup budget; a store holds one template
// behind an atomic pointer keyed by Problem identity, so repeated decodes
// against the same instance start from two memmoves.
type template struct {
	p        *core.Problem
	baseline []int
	active   []bool
}

func newTemplate(p *core.Problem) *template {
	t := &template{p: p, baseline: make([]int, p.NumSwitches), active: make([]bool, len(p.Pairs))}
	for i := range t.baseline {
		t.baseline[i] = baselineController(p, i)
	}
	for k := range t.active {
		t.active[k] = true
	}
	return t
}

// encodePlan delta-encodes a switch-mapping solution against p's baselines:
//
//	uvarint count, then per switch deviating from the ideal mapping:
//	  uvarint index gap, uvarint controller+1 (0 = unmapped)
//	uvarint run count, then per run of pairs whose Active differs from
//	"switch mapped":
//	  uvarint start gap, uvarint run length − 1
//
// Index gaps are (index − previous − 1) over ascending indices. Most plans
// differ from the ideal mapping on a handful of switches, and activation
// exceptions cluster (a flow's pairs at one switch are contiguous in the
// pair order), so payloads are a few bytes against kilobytes for a dense
// dump — and the failure-path decode walks runs, not individual pairs.
func encodePlan(p *core.Problem, sol *core.Solution) ([]byte, error) {
	if sol.PairController != nil {
		return nil, fmt.Errorf("planstore: flow-mapping solutions (%s) are not representable in format v%d", sol.Algorithm, version)
	}
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}

	nSw := 0
	for i, j := range sol.SwitchController {
		if j != baselineController(p, i) {
			nSw++
		}
	}
	put(uint64(nSw))
	prev := -1
	for i, j := range sol.SwitchController {
		if j == baselineController(p, i) {
			continue
		}
		put(uint64(i - prev - 1))
		put(uint64(j + 1))
		prev = i
	}

	exc := func(k int) bool {
		return sol.Active[k] != (sol.SwitchController[p.Pairs[k].Switch] >= 0)
	}
	nRun := 0
	for k := 0; k < len(sol.Active); k++ {
		if exc(k) {
			nRun++
			for k+1 < len(sol.Active) && exc(k+1) {
				k++
			}
		}
	}
	put(uint64(nRun))
	prev = -1
	for k := 0; k < len(sol.Active); k++ {
		if !exc(k) {
			continue
		}
		end := k + 1
		for end < len(sol.Active) && exc(end) {
			end++
		}
		put(uint64(k - prev - 1))
		put(uint64(end - k - 1))
		prev = end - 1
		k = end - 1
	}
	return buf, nil
}

// decodePlanInto reverses encodePlan into a caller-provided solution shell,
// allocating nothing: baseline mapping, deviations applied, then pair
// activations defaulted to "switch mapped" with the recorded exceptions
// flipped. The shell's slices must already have p's dimensions.
func decodePlanInto(t *template, payload []byte, sol *core.Solution) error {
	p := t.p
	if len(sol.SwitchController) != p.NumSwitches || len(sol.Active) != len(p.Pairs) {
		return fmt.Errorf("planstore: solution shell sized %d/%d, instance needs %d/%d",
			len(sol.SwitchController), len(sol.Active), p.NumSwitches, len(p.Pairs))
	}
	sol.PairController = nil
	// The varint reader is inlined by position rather than closed over a
	// shrinking slice: the closure indirection alone costs a measurable
	// share of the decode.
	pos := 0
	errTruncated := func() error { return fmt.Errorf("%w: truncated delta payload", ErrCorrupt) }

	copy(sol.SwitchController, t.baseline)
	nSw, n := binary.Uvarint(payload)
	if n <= 0 {
		return errTruncated()
	}
	pos += n
	prev := -1
	for ; nSw > 0; nSw-- {
		gap, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errTruncated()
		}
		pos += n
		ctrl, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errTruncated()
		}
		pos += n
		// Compared as read, before any conversion to int can wrap negative.
		if gap >= uint64(p.NumSwitches-prev-1) || ctrl > uint64(p.NumControllers) {
			return fmt.Errorf("%w: switch deviation out of range", ErrCorrupt)
		}
		i := prev + 1 + int(gap)
		sol.SwitchController[i] = int(ctrl) - 1
		prev = i
	}

	// Default every pair to its switch's mapped state. Mapped switches
	// dominate a plan, so fill Active true in one memmove from the template,
	// then clear the (usually few) unmapped switches' pair runs.
	copy(sol.Active, t.active)
	for i, j := range sol.SwitchController {
		if j >= 0 {
			continue
		}
		lo, hi := p.SwitchRun(i)
		clear(sol.Active[lo:hi])
	}
	nRun, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return errTruncated()
	}
	pos += n
	prev = -1
	for ; nRun > 0; nRun-- {
		gap, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errTruncated()
		}
		pos += n
		length, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return errTruncated()
		}
		pos += n
		if room := uint64(len(p.Pairs) - prev - 1); gap >= room || length >= room-gap {
			return fmt.Errorf("%w: pair deviation run out of range", ErrCorrupt)
		}
		k := prev + 1 + int(gap)
		end := k + int(length) + 1
		for ; k < end; k++ {
			sol.Active[k] = !sol.Active[k]
		}
		prev = end - 1
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes after delta payload", ErrCorrupt, len(payload)-pos)
	}
	return nil
}
