package zero

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/comm"
)

// ZELC v1, the one serialized form of a Snapshot — on disk (ckpt-*.zelc, the
// zerotrain -save/-load files) and on the wire (the zeroserve checkpoint route).
// Little endian, sealed with sealFrame's integrity trailer:
//
//	magic "ZELC" | version u32 | headerLen u32 | header JSON
//	| payload float32s | trailer
//
// The JSON header is the self-describing part: a human can `dd` it out and
// read the geometry without this package. The payload is grouped by the
// capturing world's shards — comm.Partition(num_params, world_size) — and
// carries for each shard its params, then each optimizer tensor, then (if
// accum_micros > 0) the accumulator. Under fp16 compute the header also
// carries the loss scaler — loss_scale, clean_steps, overflow_skips — and
// omits all three otherwise. The shard table is redundant with
// (num_params, world_size); Encode derives it and DecodeSnapshot insists on
// it, so any world size reads any file by slicing the flat buffers.

var zelcMagic = [4]byte{'Z', 'E', 'L', 'C'}

// zelcVersion is the format version Encode writes; DecodeSnapshot rejects
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

// canonical returns the header bytes Encode writes for h's scalar fields —
// version and shard table derived, whatever h carried — and the partition
// the table lists.
func (h zelcHeader) canonical() ([]byte, []comm.Range) {
	parts := comm.Partition(h.NumParams, h.WorldSize)
	h.Version = zelcVersion
	h.Shards = make([]zelcShard, len(parts))
	for r, p := range parts {
		h.Shards[r] = zelcShard{Rank: r, Lo: p.Lo, Hi: p.Hi}
	}
	b, err := json.Marshal(h)
	if err != nil {
		panic(err) // ints and a finite scale cannot fail to marshal
	}
	return b, parts
}

// Encode serializes the snapshot as ZELC v1.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.WorldSize <= 0 || s.NumParams <= 0 || s.OptSteps < 0 || s.AccumMicros < 0 {
		return nil, fmt.Errorf("zero: snapshot geometry out of range (world size %d, params %d, steps %d, micros %d)",
			s.WorldSize, s.NumParams, s.OptSteps, s.AccumMicros)
	}
	if !scalerValid(s.LossScale, s.CleanSteps, s.Skips) {
		return nil, fmt.Errorf("zero: snapshot loss scaler out of range (scale %g, clean steps %d, skips %d)",
			s.LossScale, s.CleanSteps, s.Skips)
	}
	if s.AccumMicros == 0 && len(s.Accum) != 0 {
		return nil, fmt.Errorf("zero: boundary snapshot carries %d accumulator elems", len(s.Accum))
	}
	ts := s.tensors()
	for i, t := range ts {
		if len(t) != s.NumParams {
			return nil, fmt.Errorf("zero: snapshot tensor %d has %d elems, want %d", i, len(t), s.NumParams)
		}
	}
	h := zelcHeader{
		Stage:       int(s.Stage),
		WorldSize:   s.WorldSize,
		NumParams:   s.NumParams,
		OptTensors:  len(s.Opt),
		OptSteps:    s.OptSteps,
		AccumMicros: s.AccumMicros,
		LossScale:   s.LossScale,
		CleanSteps:  s.CleanSteps,
		Skips:       s.Skips,
	}
	hdr, parts := h.canonical()
	buf := make([]byte, 0, 12+len(hdr)+4*len(ts)*s.NumParams+frameTrailerLen)
	buf = append(buf, zelcMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, zelcVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	for _, p := range parts {
		for _, t := range ts {
			for _, x := range t[p.Lo:p.Hi] {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
		}
	}
	return sealFrame(buf), nil
}

// DecodeSnapshot deserializes a blob written by Encode. The bytes come from
// files and HTTP clients, so nothing in them is trusted: the integrity
// trailer, magic and version are checked first, then the header must be
// byte for byte what Encode writes for its own fields (which pins the shard
// table to comm.Partition) and its geometry must account for the payload
// exactly — all before anything payload-sized is allocated.
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
	per := 1 + h.OptTensors
	if h.AccumMicros > 0 {
		per++
	}
	if len(body)%4 != 0 || floats%per != 0 || floats/per != h.NumParams {
		return nil, fmt.Errorf("zero: payload has %d bytes, header geometry needs 4·%d·%d", len(body), per, h.NumParams)
	}
	canon, parts := h.canonical()
	if !bytes.Equal(raw, canon) {
		return nil, fmt.Errorf("zero: snapshot header is not in canonical form (shard table must be comm.Partition(%d, %d))", h.NumParams, h.WorldSize)
	}

	s := &Snapshot{
		Stage:       Stage(h.Stage),
		WorldSize:   h.WorldSize,
		NumParams:   h.NumParams,
		OptSteps:    h.OptSteps,
		AccumMicros: h.AccumMicros,
		LossScale:   h.LossScale,
		CleanSteps:  h.CleanSteps,
		Skips:       h.Skips,
	}
	ts := s.alloc(h.OptTensors)
	for _, p := range parts {
		for _, t := range ts {
			for i := p.Lo; i < p.Hi; i++ {
				t[i] = math.Float32frombits(binary.LittleEndian.Uint32(body))
				body = body[4:]
			}
		}
	}
	return s, nil
}
