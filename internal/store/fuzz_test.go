package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameOf builds a frame around payload as Commit (groupMagic) or the old
// Append (recMagic) would.
func frameOf(magic uint16, payload []byte) []byte {
	b := make([]byte, frameHdrSize, frameHdrSize+len(payload))
	binary.BigEndian.PutUint16(b, magic)
	binary.BigEndian.PutUint32(b[2:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[6:], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

func memberOf(rec string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	return append(b, rec...)
}

// FuzzDecodeWAL holds the WAL decoder to its contract on arbitrary bytes: an
// error or records, never a panic and never memory sized by a length the
// bytes do not back (a 14-byte input claiming 64 MiB must cost 14 bytes of
// work); the offset it reports good is a frame boundary — decoding the bytes
// up to it gives the same records, no error, and the same offset — so
// trimming there, as Open does, is stable.
func FuzzDecodeWAL(f *testing.F) {
	const rec0 = `{"kind":"fact","data":{"n":0}}`
	const rec1 = `{"kind":"fact","data":{"n":1,"s":"abcdefghij"}}`
	single := frameOf(recMagic, []byte(rec0))
	group := frameOf(groupMagic, append(memberOf(rec0), memberOf(rec1)...))
	old, err := os.ReadFile(filepath.Join("testdata", "wal-one-record-frames.log"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), old...)
	flipped[frameHdrSize+4] ^= 0xFF // TestTornMiddleFailsLoudly's corruption
	oversized := append([]byte(nil), group...)
	binary.BigEndian.PutUint32(oversized[2:], maxRecordSize+1)
	badMember := frameOf(groupMagic, binary.BigEndian.AppendUint32(nil, 1<<31))

	for _, seed := range [][]byte{
		nil,
		single,
		group,
		old,
		old[:len(old)-5], // TestTruncatedTailTolerated's cuts
		old[:len(old)-frameHdrSize-3],
		flipped,
		append(append([]byte(nil), single...), group[:len(group)-7]...),                    // a group inside a torn tail
		append(append(append([]byte(nil), single...), group[:len(group)-7]...), single...), // the same cut mid-log
		append(append([]byte(nil), group...), frameOf(groupMagic, nil)...),                 // an empty group
		oversized,
		badMember,
		frameOf(groupMagic, []byte{0, 0}),     // ends inside a member header
		frameOf(recMagic, []byte(`{"kind":`)), // checksummed, not JSON
		frameOf(groupMagic, memberOf(`{"kind":`)),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		records, good, err := decodeWAL(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			if records != nil || good != 0 {
				t.Fatalf("error %v came with %d records and offset %d", err, len(records), good)
			}
			return
		}
		if good < 0 || good > len(raw) {
			t.Fatalf("good = %d of %d bytes", good, len(raw))
		}
		again, good2, err := decodeWAL(raw[:good])
		if err != nil || good2 != good || !reflect.DeepEqual(again, records) {
			t.Fatalf("decoding the %d good bytes again: err %v, offset %d, %d records; first pass had %d",
				good, err, good2, len(again), len(records))
		}
	})
}
