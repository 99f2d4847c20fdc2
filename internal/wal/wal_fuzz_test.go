//go:build go1.18

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// encodeFrame builds one on-disk record exactly as AppendBuffered does.
func encodeFrame(lsn uint64, payload []byte) []byte {
	var header [headerSize]byte
	binary.BigEndian.PutUint32(header[0:4], uint32(frameOverhead+len(payload)))
	binary.BigEndian.PutUint64(header[8:16], lsn)
	header[16] = recordVersion
	crc := crc32.Update(0, castagnoli, header[8:headerSize])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(header[4:8], crc)
	return append(header[:], payload...)
}

// FuzzWALReadRecord feeds arbitrary bytes to the segment decoder and
// checks the recovery contract: it never panics, it never claims more
// valid bytes than exist, and whatever prefix it does accept re-decodes
// to exactly the same records — a torn or corrupted tail can only ever
// truncate, never alter, the recovered history — and that a zero tail (the
// append window) after that prefix never yields a record.
func FuzzWALReadRecord(f *testing.F) {
	rec1 := encodeFrame(1, []byte(`{"type":"add_user"}`))
	rec2 := encodeFrame(2, []byte("second payload"))
	f.Add([]byte{})
	f.Add(rec1)
	f.Add(append(append([]byte{}, rec1...), rec2...))
	f.Add(append(append([]byte{}, rec1...), rec2[:len(rec2)-5]...)) // torn tail
	f.Add(append(append([]byte{}, rec1...), "garbage after the record"...))
	zeroTail := make([]byte, 3*headerSize)
	f.Add(append(append([]byte{}, rec1...), zeroTail...))                                // killed process: window left behind
	f.Add(append(append(append([]byte{}, rec1...), rec2[:len(rec2)-5]...), zeroTail...)) // write torn inside the window
	corrupt := append([]byte{}, rec1...)
	corrupt[len(corrupt)-1] ^= 0xff // flip a payload bit: CRC must catch it
	f.Add(corrupt)
	badVer := encodeFrame(1, []byte("x"))
	badVer[16] = recordVersion + 1
	// The CRC covers the version byte and is checked first, so recompute
	// it to reach the unknown-version path.
	crc := crc32.Update(0, castagnoli, badVer[8:headerSize])
	crc = crc32.Update(crc, castagnoli, badVer[headerSize:])
	binary.BigEndian.PutUint32(badVer[4:8], crc)
	f.Add(badVer)
	f.Add(encodeFrame(0, nil)) // LSN not after expectAfter=0
	huge := make([]byte, headerSize)
	binary.BigEndian.PutUint32(huge[0:4], uint32(frameOverhead+maxPayload))
	f.Add(huge) // length field demands 64 MiB that is not there

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &segmentReader{f: bytes.NewReader(data), expectAfter: 0}
		var lsns []uint64
		for {
			lsn, _, err := r.next()
			if err == nil {
				lsns = append(lsns, lsn)
				continue
			}
			if err != io.EOF && !errors.Is(err, errCorrupt) && !errors.Is(err, ErrUnknownVersion) {
				t.Fatalf("unexpected error class: %v", err)
			}
			break
		}
		if r.valid > int64(len(data)) {
			t.Fatalf("valid offset %d beyond input length %d", r.valid, len(data))
		}
		if r.records != len(lsns) {
			t.Fatalf("records counter %d but %d successful reads", r.records, len(lsns))
		}
		for i := 1; i < len(lsns); i++ {
			if lsns[i] <= lsns[i-1] {
				t.Fatalf("LSNs not strictly increasing: %v", lsns)
			}
		}

		// The accepted prefix must re-decode to the identical history and
		// end exactly at the valid offset with a clean EOF.
		re := &segmentReader{f: bytes.NewReader(data[:r.valid]), expectAfter: 0}
		for i := 0; ; i++ {
			lsn, _, err := re.next()
			if err == io.EOF {
				if i != len(lsns) {
					t.Fatalf("prefix re-decode stopped after %d records, want %d", i, len(lsns))
				}
				break
			}
			if err != nil {
				t.Fatalf("prefix re-decode failed at record %d: %v", i, err)
			}
			if i >= len(lsns) || lsn != lsns[i] {
				t.Fatalf("prefix re-decode diverged at record %d", i)
			}
		}
		if re.valid != r.valid || re.lastLSN != r.lastLSN {
			t.Fatalf("prefix re-decode: valid/lastLSN %d/%d, want %d/%d",
				re.valid, re.lastLSN, r.valid, r.lastLSN)
		}

		// The accepted prefix followed by zeros — shorter than a header, or
		// longer — stops at the same offset, as corruption, with no record
		// conjured out of the zeros.
		for _, n := range []int{1 + len(data)%headerSize, headerSize + len(data)%64} {
			windowed := append(append([]byte{}, data[:r.valid]...), make([]byte, n)...)
			z := &segmentReader{f: bytes.NewReader(windowed), expectAfter: 0}
			var err error
			for err == nil {
				_, _, err = z.next()
			}
			if err != errCorrupt || z.valid != r.valid || z.records != len(lsns) {
				t.Fatalf("%d-byte zero tail: err %v, valid %d, records %d; want errCorrupt, %d, %d",
					n, err, z.valid, z.records, r.valid, len(lsns))
			}
		}
	})
}
