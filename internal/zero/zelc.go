package zero

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/arena"
	"repro/internal/comm"
)

// ZELC v1, the one serialized form of a Snapshot — on disk (ckpt-*.zelc, the
// zerotrain -save/-load files) and on the wire (the zeroserve checkpoint route).
// Little endian, sealed with the frame writer's integrity trailer (frame.go):
//
//	magic "ZELC" | version u32 | headerLen u32 | header JSON
//	| payload float32s | trailer
//
// The JSON header is the self-describing part: a human can `dd` it out and
// read the geometry without this package. The payload is the capturing
// world's slabs in rank order — for each shard of comm.Partition(num_params,
// world_size) its params, then each optimizer tensor, then (if
// accum_micros > 0) the accumulator. Under fp16 compute the header also
// carries the loss scaler — loss_scale, clean_steps, overflow_skips — and
// omits all three otherwise. The shard table is redundant with
// (num_params, world_size); WriteTo derives it and DecodeSnapshot insists
// on it, so any world size reads any file by the same range map.

var zelcMagic = [4]byte{'Z', 'E', 'L', 'C'}

// zelcVersion is the format version WriteTo writes; DecodeSnapshot rejects
// any other.
const zelcVersion = 1

type zelcHeader struct {
	Version     int         `json:"version"`
	Stage       int         `json:"stage"`
	WorldSize   int         `json:"world_size"`
	NumParams   int         `json:"num_params"`
	OptTensors  int         `json:"opt_tensors"`
	OptSteps    int         `json:"opt_steps"`
	AccumMicros int         `json:"accum_micros"`
	LossScale   float64     `json:"loss_scale,omitempty"`
	CleanSteps  int         `json:"clean_steps,omitempty"`
	Skips       int         `json:"overflow_skips,omitempty"`
	Shards      []zelcShard `json:"shards"`
}

// scalerValid reports whether the loss scaler fields hold a scaler — a
// finite positive scale and non-negative counters — or none at all.
func scalerValid(scale float64, clean, skips int) bool {
	if scale == 0 {
		return clean == 0 && skips == 0
	}
	return scale > 0 && !math.IsInf(scale, 1) && clean >= 0 && skips >= 0
}

type zelcShard struct {
	Rank int `json:"rank"`
	Lo   int `json:"lo"`
	Hi   int `json:"hi"`
}

// canonical returns the header bytes WriteTo writes for h's scalar fields —
// version derived, and the shard table listing parts, which is
// comm.Partition(h.NumParams, h.WorldSize) — whatever h carried.
func (h zelcHeader) canonical(parts []comm.Range) []byte {
	h.Version = zelcVersion
	h.Shards = make([]zelcShard, len(parts))
	for r, p := range parts {
		h.Shards[r] = zelcShard{Rank: r, Lo: p.Lo, Hi: p.Hi}
	}
	b, err := json.Marshal(h)
	if err != nil {
		panic(err) // ints and a finite scale cannot fail to marshal
	}
	return b
}

// header returns the canonical header of a snapshot with s's scalar fields
// whose slabs follow parts and carry k tensors each.
func (s *Snapshot) header(parts []comm.Range, k int) []byte {
	return zelcHeader{
		Stage:       int(s.Stage),
		WorldSize:   s.WorldSize,
		NumParams:   s.NumParams,
		OptTensors:  k - 1 - min(s.AccumMicros, 1),
		OptSteps:    s.OptSteps,
		AccumMicros: s.AccumMicros,
		LossScale:   s.LossScale,
		CleanSteps:  s.CleanSteps,
		Skips:       s.Skips,
	}.canonical(parts)
}

// headerLen returns len(s.header(parts, k)) without marshalling it, for a
// rank that needs only where its slab starts: the header's fixed text
// plus each number as encoding/json writes it, optional fields when set.
func (s *Snapshot) headerLen(parts []comm.Range, k int) int {
	n := len(`{"version":,"stage":,"world_size":,"num_params":,"opt_tensors":,"opt_steps":,"accum_micros":,"shards":[]}`) + len(parts) - 1
	for _, v := range [...]int{zelcVersion, int(s.Stage), s.WorldSize, s.NumParams, k - 1 - min(s.AccumMicros, 1), s.OptSteps, s.AccumMicros} {
		n += intLen(v)
	}
	if s.LossScale != 0 {
		n += len(`,"loss_scale":`) + floatLen(s.LossScale)
	}
	if s.CleanSteps != 0 {
		n += len(`,"clean_steps":`) + intLen(s.CleanSteps)
	}
	if s.Skips != 0 {
		n += len(`,"overflow_skips":`) + intLen(s.Skips)
	}
	for r, p := range parts {
		n += len(`{"rank":,"lo":,"hi":}`) + intLen(r) + intLen(p.Lo) + intLen(p.Hi)
	}
	return n
}

// intLen is the length of v in decimal.
func intLen(v int) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], int64(v), 10))
}

// floatLen is the length of f as encoding/json writes a float64: the
// shortest form, with an exponent (e-7, not e-07) outside [1e-6, 1e21).
func floatLen(f float64) int {
	var b [32]byte
	if a := math.Abs(f); a >= 1e-6 && a < 1e21 {
		return len(strconv.AppendFloat(b[:0], f, 'f', -1, 64))
	}
	e := strconv.AppendFloat(b[:0], f, 'e', -1, 64)
	return len(e) - bytes.Count(e, []byte("e-0"))
}

// encodeBufs lends the 64 KiB buffers ZELC is encoded through, one per
// writer at a time, so a warmed writer allocates none.
var encodeBufs arena.Arena[byte]

// encodeTo streams to w the payload's magic, version and header (when hdr
// is non-nil), then xs, piece after piece, as little-endian float32s,
// through one lent buffer.
func encodeTo(w io.Writer, hdr []byte, xs [][]float32) error {
	buf := encodeBufs.Get(64 << 10)
	defer func() { encodeBufs.Put(buf) }()
	buf = buf[:0]
	if hdr != nil {
		buf = append(buf, zelcMagic[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, zelcVersion)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
		buf = append(buf, hdr...)
	}
	for _, x := range xs {
		for len(x) > 0 {
			n := min(len(x), (cap(buf)-len(buf))/4)
			if n == 0 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
				continue
			}
			b := buf[len(buf) : len(buf)+4*n]
			for i, v := range x[:n] {
				binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
			}
			buf, x = buf[:len(buf)+4*n], x[n:]
		}
	}
	_, err := w.Write(buf)
	return err
}

// WriteTo streams the snapshot to w as ZELC v1: the header, each slab in
// rank order, then the integrity trailer, through one 64 KiB buffer. It
// refuses a snapshot whose slabs do not match its own geometry rather than
// write a file DecodeSnapshot would reject.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	parts, k, err := s.layout()
	if err != nil {
		return 0, err
	}
	fw := frameWriter{w: w}
	if err := encodeTo(&fw, s.header(parts, k), s.Slabs); err != nil {
		return fw.n, err
	}
	return fw.seal()
}

// WriteSnapshotFile writes the snapshot whose slabs the ranks of c hold to
// path as ZELC — byte for byte what WriteTo writes for it — with no slab on
// the wire. Every rank passes the same path and the header its capture
// returned, with its slab, which may come in pieces written in order.
//
// Each rank works out the canonical header, and from it its slab's offset,
// from the geometry alone, and writes its slab there into path+".tmp"
// through a lent 64 KiB buffer; rank 0 writes the magic and header before
// its own. Each rank then sends rank 0 a three-float report: its range's
// CRC-32 and byte count, negative when its write failed. Rank 0 folds the
// CRCs (crc32Combine), writes the trailer, truncates the file to its
// length (so a stale, longer temp file cannot survive) and renames it over
// path, so no reader ever sees a torn file. Nothing is fsynced.
//
// Rank 0 returns the file's size and the checkpoint's verdict; on failure
// it names the rank at fault, leaves path as it was and removes the temp
// file (a rank still writing after a peer died may leave one, which the
// next write of path truncates). The other ranks return their own write's
// byte count and error: rank 0 sends them nothing.
func WriteSnapshotFile(c *comm.Comm, path string, hdr Snapshot, slab ...[]float32) (int64, error) {
	r, tmp := c.Rank(), path+".tmp"
	var f *os.File
	var fw frameWriter
	parts, k, err := slabLayout(&hdr, c.Size(), r, slab)
	if err == nil {
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE, 0o644) // no O_TRUNC: another rank may have written
	}
	if err == nil {
		var prefix []byte
		off := int64(12+hdr.headerLen(parts, k)) + 4*int64(k)*int64(parts[r].Lo) // past the magic, version, header length, header and lower slabs
		if r == 0 {
			prefix, off = hdr.header(parts, k), 0
		}
		fw = frameWriter{w: io.NewOffsetWriter(f, off)}
		err = encodeTo(&fw, prefix, slab)
	}
	if r != 0 {
		if f != nil {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		n := fw.n
		if err != nil {
			n = -1
		}
		report := [3]float32{math.Float32frombits(fw.crc), math.Float32frombits(uint32(n)), math.Float32frombits(uint32(n >> 32))}
		c.Gather(report[:], 0, nil)
		if err != nil {
			return 0, fmt.Errorf("zero: rank %d writing its slab of %s: %w", r, path, err)
		}
		return n, nil
	}

	// Rank 0 removes the temp file unless it renamed it: after a failed
	// write, and when a dead rank cuts the reports short (Gather panics).
	renamed := false
	defer func() {
		if f != nil {
			f.Close() //nolint:errcheck // closed already, or the write's error is the one to report
		}
		if !renamed {
			os.Remove(tmp) //nolint:errcheck // likewise
		}
	}()
	reports := make([][]float32, c.Size())
	c.Gather(nil, 0, reports)
	if err != nil {
		return 0, fmt.Errorf("zero: rank 0 writing its slab of %s: %w", path, err)
	}
	size, crc := fw.n, fw.crc
	for q, rep := range reports[1:] {
		q++
		n := int64(math.Float32bits(rep[1])) | int64(math.Float32bits(rep[2]))<<32
		if n < 0 {
			return 0, fmt.Errorf("zero: rank %d failed to write its slab of %s", q, path)
		}
		if want := 4 * int64(k) * int64(parts[q].Len()); n != want {
			return 0, fmt.Errorf("zero: rank %d wrote %d bytes of %s, where the header places %d", q, n, path, want)
		}
		size, crc = size+n, crc32Combine(crc, math.Float32bits(rep[0]), n)
	}
	tr := frameTrailer(size, crc)
	if _, err := f.WriteAt(tr[:], size); err != nil {
		return 0, err
	}
	size += frameTrailerLen
	if err := f.Truncate(size); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	renamed = true
	return size, nil
}

// slabLayout checks one rank's header and slab against a world of size
// ranks, the way layout checks a whole snapshot, and returns the partition
// and the tensors the slab carries (0 when the rank's partition is empty).
func slabLayout(hdr *Snapshot, size, r int, slab [][]float32) ([]comm.Range, int, error) {
	if err := hdr.checkHeader(size); err != nil {
		return nil, 0, err
	}
	floats := 0
	for _, x := range slab {
		floats += len(x)
	}
	parts := comm.Partition(hdr.NumParams, size)
	p := parts[r].Len()
	if k := floats / max(p, 1); floats == k*p && (p == 0 || k >= 1+min(hdr.AccumMicros, 1)) {
		return parts, k, nil
	}
	return nil, 0, fmt.Errorf("zero: rank %d slab has %d floats, not a whole number of tensors of its %d params", r, floats, p)
}

// ReadSnapshotFile decodes the ZELC file at path: the one reader of the
// files WriteSnapshotFile writes, for zerotrain -load and the daemon's restarts.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(blob)
}

// DecodeSnapshot deserializes a blob written by WriteTo. The bytes come
// from files and HTTP clients, so nothing in them is trusted: the integrity
// trailer, magic and version are checked first, then the header must be
// byte for byte what WriteTo writes for its own fields (which pins the
// shard table to comm.Partition) and its geometry must account for the
// payload exactly — all before anything payload-sized is allocated. The
// slabs share one float buffer.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	payload, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	if len(payload) < 12 {
		return nil, fmt.Errorf("zero: snapshot too short (%d bytes)", len(payload))
	}
	if [4]byte(payload[0:4]) != zelcMagic {
		return nil, fmt.Errorf("zero: bad magic %q (not a ZELC snapshot)", payload[0:4])
	}
	if v := binary.LittleEndian.Uint32(payload[4:8]); v != zelcVersion {
		return nil, fmt.Errorf("zero: unsupported snapshot version %d (this build reads %d)", v, zelcVersion)
	}
	hlen := binary.LittleEndian.Uint32(payload[8:12])
	if uint64(hlen) > uint64(len(payload)-12) {
		return nil, fmt.Errorf("zero: header length %d exceeds blob", hlen)
	}
	raw, body := payload[12:12+hlen], payload[12+hlen:]
	var h zelcHeader
	if err := json.Unmarshal(raw, &h); err != nil {
		return nil, fmt.Errorf("zero: decoding snapshot header: %w", err)
	}
	// Bound every count by the input before it sizes anything: the world by
	// the shard entries actually present, the tensors by the payload (by
	// division, so no product can overflow).
	floats := len(body) / 4
	if h.WorldSize <= 0 || h.WorldSize != len(h.Shards) || h.NumParams <= 0 ||
		h.OptTensors < 0 || h.OptTensors > floats || h.OptSteps < 0 || h.AccumMicros < 0 ||
		!scalerValid(h.LossScale, h.CleanSteps, h.Skips) {
		return nil, fmt.Errorf("zero: snapshot header out of range (world size %d with %d shards, params %d, opt tensors %d, steps %d, micros %d, loss scale %g, clean steps %d, skips %d)",
			h.WorldSize, len(h.Shards), h.NumParams, h.OptTensors, h.OptSteps, h.AccumMicros, h.LossScale, h.CleanSteps, h.Skips)
	}
	per := 1 + h.OptTensors + min(h.AccumMicros, 1) // tensors per slab
	if len(body)%4 != 0 || floats%per != 0 || floats/per != h.NumParams {
		return nil, fmt.Errorf("zero: payload has %d bytes, header geometry needs 4·%d·%d", len(body), per, h.NumParams)
	}
	parts := comm.Partition(h.NumParams, h.WorldSize)
	if !bytes.Equal(raw, h.canonical(parts)) {
		return nil, fmt.Errorf("zero: snapshot header is not in canonical form (shard table must be comm.Partition(%d, %d))", h.NumParams, h.WorldSize)
	}

	buf := make([]float32, floats)
	for i := range buf {
		buf[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return &Snapshot{
		Stage:       Stage(h.Stage),
		WorldSize:   h.WorldSize,
		NumParams:   h.NumParams,
		OptSteps:    h.OptSteps,
		AccumMicros: h.AccumMicros,
		LossScale:   h.LossScale,
		CleanSteps:  h.CleanSteps,
		Skips:       h.Skips,
		Slabs:       tile(buf, parts, per),
	}, nil
}
