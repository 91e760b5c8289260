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
	tr := frameTrailer(f.n, f.crc)
	n, err := f.w.Write(tr[:])
	return f.n + int64(n), err
}

// frameTrailer is the trailer sealing n payload bytes whose CRC-32 is crc.
func frameTrailer(n int64, crc uint32) [frameTrailerLen]byte {
	var tr [frameTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(n))
	binary.LittleEndian.PutUint32(tr[8:12], crc)
	copy(tr[12:16], frameMagic[:])
	return tr
}

// crc32Combine returns the IEEE CRC-32 of A‖B from crc1 = CRC(A), crc2 =
// CRC(B) and len2 = len(B), so ranks that each checksummed their own range
// of a payload can be folded into the payload's checksum without the bytes.
// It is zlib's crc32_combine: appending len2 zero bytes to A is a linear map
// on the CRC register over GF(2), applied by repeated squaring of the
// one-zero-bit operator (a 32×32 bit matrix, one uint32 per column).
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [32]uint32 // operators for 2^k zero bits, k even and odd
	odd[0] = crc32.IEEE      // one zero bit: shift right, fold in the polynomial
	for n, row := 1, uint32(1); n < 32; n, row = n+1, row<<1 {
		odd[n] = row
	}
	gf2Square(&even, &odd) // two zero bits
	gf2Square(&odd, &even) // four zero bits
	for {
		gf2Square(&even, &odd) // the first pass makes it one zero byte
		if len2&1 != 0 {
			crc1 = gf2Times(&even, crc1)
		}
		if len2 >>= 1; len2 == 0 {
			break
		}
		gf2Square(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2Times(&odd, crc1)
		}
		if len2 >>= 1; len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

// gf2Times multiplies the GF(2) matrix mat by the vector vec.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
	}
	return sum
}

// gf2Square sets sq to mat·mat.
func gf2Square(sq, mat *[32]uint32) {
	for n := range mat {
		sq[n] = gf2Times(mat, mat[n])
	}
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
