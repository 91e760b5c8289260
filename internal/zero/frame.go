package zero

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot blobs end in a fixed 16-byte integrity trailer:
//
//	[payload][length uint64 LE][crc32(payload) uint32 LE][magic "ZCK1"]
//
// The length makes truncation and padding loud before anything is parsed,
// and the checksum catches bit rot inside the float payload, which no
// structural check on the ZELC header (zelc.go) could see. The framing is
// payload-agnostic.

// frameMagic terminates every sealed blob.
var frameMagic = [4]byte{'Z', 'C', 'K', '1'}

// frameTrailerLen is the byte length seal writes.
const frameTrailerLen = 16

// frameWriter streams a payload to w, keeping the length and running
// CRC-32 its trailer records.
type frameWriter struct {
	w   io.Writer
	n   int64 // payload bytes written
	crc uint32
}

func (f *frameWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.n += int64(n)
	f.crc = crc32.Update(f.crc, crc32.IEEETable, p[:n])
	return n, err
}

// seal writes the trailer after the payload and returns the bytes written
// in all.
func (f *frameWriter) seal() (int64, error) {
	var tr [frameTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(f.n))
	binary.LittleEndian.PutUint32(tr[8:12], f.crc)
	copy(tr[12:16], frameMagic[:])
	n, err := f.w.Write(tr[:])
	return f.n + int64(n), err
}

// openFrame verifies and strips the integrity trailer, returning the
// payload. It fails on missing magic, truncation, padding (any length
// mismatch) and checksum mismatch.
func openFrame(data []byte) ([]byte, error) {
	if len(data) < frameTrailerLen {
		return nil, fmt.Errorf("zero: blob too short for integrity trailer (%d bytes)", len(data))
	}
	tr := data[len(data)-frameTrailerLen:]
	if [4]byte(tr[12:16]) != frameMagic {
		return nil, fmt.Errorf("zero: integrity trailer missing (truncated, padded, or not a sealed snapshot)")
	}
	n := binary.LittleEndian.Uint64(tr[0:8])
	if n != uint64(len(data)-frameTrailerLen) {
		return nil, fmt.Errorf("zero: snapshot length mismatch: trailer says %d payload bytes, blob has %d", n, len(data)-frameTrailerLen)
	}
	payload := data[:n]
	want := binary.LittleEndian.Uint32(tr[8:12])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("zero: snapshot checksum mismatch: %08x != %08x (corrupt payload)", got, want)
	}
	return payload, nil
}
