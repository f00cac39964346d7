package planstore

import (
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"pmedic/internal/core"
	"pmedic/internal/scenario"
)

// reseal returns a copy of raw with every checksum the reader verifies
// recomputed — each in-bounds payload's in its index entry, then the index's,
// then the header's — so a mutation reaches the index and the delta payloads
// instead of stopping at the first CRC.
func reseal(raw []byte) []byte {
	b := append([]byte(nil), raw...)
	if len(b) < hdrSize {
		return b
	}
	n := int(binary.BigEndian.Uint32(b[28:]))
	if idxEnd := hdrSize + n*entrySize; idxEnd+4 <= len(b) {
		for i := 0; i < n; i++ {
			row := b[hdrSize+i*entrySize:]
			off, length := binary.BigEndian.Uint64(row[8:]), uint64(binary.BigEndian.Uint32(row[16:]))
			if off <= uint64(len(b)) && length <= uint64(len(b))-off {
				binary.BigEndian.PutUint32(row[20:], checksum(b[off:off+length]))
			}
		}
		binary.BigEndian.PutUint32(b[idxEnd:], checksum(b[hdrSize:idxEnd]))
	}
	binary.BigEndian.PutUint32(b[hdrCRCOff:], checksum(b[:hdrCRCOff]))
	return b
}

// withPayload returns a sealed one-entry store under hdr's header: key's
// record holds payload.
func withPayload(hdr []byte, key uint64, payload []byte) []byte {
	b := append([]byte(nil), hdr[:hdrSize]...)
	binary.BigEndian.PutUint32(b[28:], 1)
	row := make([]byte, entrySize)
	binary.BigEndian.PutUint64(row, key)
	binary.BigEndian.PutUint64(row[8:], hdrSize+entrySize+4)
	binary.BigEndian.PutUint32(row[16:], uint32(len(payload)))
	b = append(append(b, row...), 0, 0, 0, 0)
	return reseal(append(b, payload...))
}

// FuzzOpen holds the plan-store reader to its contract on arbitrary bytes:
// parse, and DecodeInto on every record it serves, return an error or a valid
// value — never a panic, and never memory sized by a count the bytes do not
// back. Each input runs as given and resealed. A parsed store's index fits in
// its bytes, its keys ascend and its served records lie inside the file; a
// decoded plan maps switches to controllers in range, and re-encoding it
// decodes to the same plan.
func FuzzOpen(f *testing.F) {
	path, _, ctx := compileDepth2(f)
	pristine, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flip := func(at int, mask byte) []byte {
		b := append([]byte(nil), pristine...)
		b[at] ^= mask
		return b
	}
	wrapped := append([]byte(nil), pristine...)
	binary.BigEndian.PutUint64(wrapped[hdrSize+8:], 1<<64-1) // offset + length wraps past the end
	key := binary.BigEndian.Uint64(pristine[hdrSize:])
	maxGap := binary.AppendUvarint(nil, 1<<64-1)
	for _, seed := range [][]byte{
		nil,
		pristine,
		pristine[:len(pristine)-3], // TestCorruption's cuts and flips
		pristine[:hdrSize+entrySize/2],
		flip(len(pristine)-10, 0x40),
		flip(17, 0x01),
		flip(hdrSize+entrySize+3, 0x80),
		flip(0, 0xFF),
		wrapped,
		withPayload(pristine, key, append(append([]byte{1}, maxGap...), 1, 0)), // a gap that wraps int
		withPayload(pristine, key, append([]byte{1, 0}, maxGap...)),            // a controller that wraps int
		withPayload(pristine, key, append(append([]byte{0, 1}, maxGap...), 0)), // a run start that wraps int
	} {
		f.Add(seed)
	}

	// One instance per failure set, built on first use; nil where the key
	// names a controller ATT lacks or fails them all.
	insts := map[uint64]*scenario.Instance{}
	instFor := func(key uint64) *scenario.Instance {
		inst, ok := insts[key]
		if !ok {
			if m := len(ctx.Dep.Controllers); key != 0 && key>>m == 0 {
				inst, _ = ctx.Build(failedSetOf(key))
			}
			insts[key] = inst
		}
		return inst
	}

	check := func(t *testing.T, raw []byte) {
		st := &Store{data: raw}
		if err := st.parse(); err != nil {
			return
		}
		if n := st.hdr.NumEntries; n*entrySize > len(raw) || len(st.keys) != n || len(st.entries) != n {
			t.Fatalf("parsed %d entries (%d keys) from %d bytes", n, len(st.keys), len(raw))
		}
		for i, e := range st.entries {
			if i > 0 && st.keys[i] <= st.keys[i-1] {
				t.Fatalf("keys not ascending at %d", i)
			}
			if !e.ok {
				continue
			}
			if e.off > uint64(len(raw)) || uint64(e.length) > uint64(len(raw))-e.off {
				t.Fatalf("entry %d served at [%d, +%d) of %d bytes", i, e.off, e.length, len(raw))
			}
			inst := instFor(st.keys[i])
			if inst == nil {
				continue
			}
			p := inst.Problem
			sol := core.NewSolution("", p)
			if err := st.DecodeInto(st.rec(i), inst, sol); err != nil {
				continue
			}
			for sw, j := range sol.SwitchController {
				if j < -1 || j >= p.NumControllers {
					t.Fatalf("entry %d maps switch %d to controller %d of %d", i, sw, j, p.NumControllers)
				}
			}
			payload, err := encodePlan(p, sol)
			if err != nil {
				t.Fatalf("entry %d: re-encoding the decoded plan: %v", i, err)
			}
			again := core.NewSolution("", p)
			if err := decodePlanInto(st.templateFor(p), payload, again); err != nil {
				t.Fatalf("entry %d: decoding the re-encoded plan: %v", i, err)
			}
			if !reflect.DeepEqual(again.SwitchController, sol.SwitchController) || !reflect.DeepEqual(again.Active, sol.Active) {
				t.Fatalf("entry %d: the re-encoded plan decodes to another plan", i)
			}
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		check(t, raw)
		check(t, reseal(raw))
	})
}
