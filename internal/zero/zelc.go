package zero

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

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

// WriteTo streams the snapshot to w as ZELC v1: the header, each slab in
// rank order, then the integrity trailer, through one 64 KiB buffer. It
// refuses a snapshot whose slabs do not match its own geometry rather than
// write a file DecodeSnapshot would reject.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	parts, k, err := s.layout()
	if err != nil {
		return 0, err
	}
	h := zelcHeader{
		Stage:       int(s.Stage),
		WorldSize:   s.WorldSize,
		NumParams:   s.NumParams,
		OptTensors:  k - 1 - min(s.AccumMicros, 1),
		OptSteps:    s.OptSteps,
		AccumMicros: s.AccumMicros,
		LossScale:   s.LossScale,
		CleanSteps:  s.CleanSteps,
		Skips:       s.Skips,
	}
	hdr := h.canonical(parts)
	fw := frameWriter{w: w}
	buf := append(make([]byte, 0, 64<<10), zelcMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, zelcVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, slab := range s.Slabs {
		for _, x := range slab {
			if len(buf)+4 > cap(buf) {
				if _, err := fw.Write(buf); err != nil {
					return fw.n, err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	}
	if _, err := fw.Write(buf); err != nil {
		return fw.n, err
	}
	return fw.seal()
}

// WriteFile writes the snapshot to path as ZELC: WriteTo streams it into
// path+".tmp", which is closed and then renamed over path, so neither a
// reader nor a process dying mid-write ever leaves a torn file at path. It
// does not fsync (the files are rewritten every few steps): a machine that
// loses power may lose the newest write. A failed write removes the temp
// file and leaves path as it was. It returns the bytes written.
func (s *Snapshot) WriteFile(path string) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := s.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // the write's error is the one to report
		return n, err
	}
	return n, nil
}

// ReadSnapshotFile decodes the ZELC file at path: the one reader of the
// files WriteFile writes, for zerotrain -load and the daemon's restarts.
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
