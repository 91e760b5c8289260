package zero

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// The ZELC v1 format goldens under testdata/ were written by the commit
// before the codec moved into this package (elastic.Checkpoint.Encode): a
// seeded 4-rank stage-2 Adam run captured after 3 optimizer steps, once on
// the boundary and once with one of two micro-batches pending in the
// accumulator. They are never regenerated from this code — that is the
// point.
var zelcFixtures = []struct {
	file     string
	midAccum bool
}{
	{"ckpt-v1-n4.zelc", false},
	{"ckpt-v1-n4-midaccum.zelc", true},
}

func readFixture(t testing.TB, file string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// encode is WriteTo into memory.
func encode(s *Snapshot) ([]byte, error) {
	var b bytes.Buffer
	_, err := s.WriteTo(&b)
	return b.Bytes(), err
}

func mustEncode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	blob, err := encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// sealFrame appends the integrity trailer to payload, as WriteTo's frame
// writer does.
func sealFrame(payload []byte) []byte {
	var b bytes.Buffer
	fw := frameWriter{w: &b}
	fw.Write(payload)
	fw.seal()
	return b.Bytes()
}

// optTensors returns how many optimizer tensors each of s's slabs carries.
func optTensors(t testing.TB, s *Snapshot) int {
	t.Helper()
	_, k, err := s.layout()
	if err != nil {
		t.Fatal(err)
	}
	if s.AccumMicros > 0 {
		k--
	}
	return k - 1
}

// fixtureRun replays the run the fixtures were captured from and returns
// its snapshot through today's capture path.
func fixtureRun(t *testing.T, midAccum bool) *Snapshot {
	t.Helper()
	// Its parameter count (1450) divides by neither 4 nor 3, so the shard
	// tables the test walks through are uneven.
	cfg := model.Config{Layers: 1, Hidden: 10, Heads: 2, Vocab: 7, Seq: 3}
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(21, batch, cfg.Seq, cfg.Vocab)
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	micros, extra := 1, 0
	if midAccum {
		micros, extra = 2, 1
	}
	slabs := make([][]float32, n)
	var snap Snapshot
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		tr := MustNew(c, cfg, opts)
		defer tr.Close()
		for m := 0; m < 3*micros+extra; m++ {
			tr.Forward(ids, targets, batch)
			tr.Backward()
			if m < 3*micros && (m+1)%micros == 0 {
				tr.Update()
			}
		}
		slab, hdr := tr.CaptureShard(nil)
		slabs[c.Rank()] = slab
		if c.Rank() == 0 {
			snap = hdr
		}
	})
	snap.Slabs = slabs
	return &snap
}

// ZELC v1 is byte-compatible across the codec's moves: the committed files
// decode and re-encode unchanged, the seeded run still captures to exactly
// those bytes, and regrouping the slabs for another world size and back
// (N→M→N) is lossless — the floats are the same at every M, only their
// tiling follows WorldSize.
func TestZELCFormatGolden(t *testing.T) {
	for _, fx := range zelcFixtures {
		want := readFixture(t, fx.file)
		snap, err := DecodeSnapshot(want)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if snap.WorldSize != 4 || snap.OptSteps != 3 || optTensors(t, snap) != 2 || (snap.AccumMicros > 0) != fx.midAccum {
			t.Fatalf("%s: header mangled: world %d, steps %d, %d opt tensors, micros %d",
				fx.file, snap.WorldSize, snap.OptSteps, optTensors(t, snap), snap.AccumMicros)
		}
		if !bytes.Equal(mustEncode(t, snap), want) {
			t.Errorf("%s: decode → encode changed the bytes", fx.file)
		}
		if !bytes.Equal(mustEncode(t, fixtureRun(t, fx.midAccum)), want) {
			t.Errorf("%s: the seeded run no longer captures to the committed bytes", fx.file)
		}

		// 2000 ranks is more than there are parameters: empty shards.
		for _, m := range []int{1, 2, 3, 5, 8, 64, 2000} {
			atM := mustEncode(t, mustRegroup(t, snap, m))
			if bytes.Equal(atM, want) {
				t.Fatalf("%s: regrouping for %d ranks left the bytes alone", fx.file, m)
			}
			back, err := DecodeSnapshot(atM)
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", fx.file, m, err)
			}
			if !bytes.Equal(mustEncode(t, mustRegroup(t, back, 4)), want) {
				t.Errorf("%s: 4→%d→4 did not reproduce the bytes", fx.file, m)
			}
		}
	}
}

// scaledFixture is the boundary fixture re-encoded as an fp16 run's
// snapshot: the same payload with a loss scaler in the header.
func scaledFixture(t testing.TB) []byte {
	t.Helper()
	snap, err := DecodeSnapshot(readFixture(t, zelcFixtures[0].file))
	if err != nil {
		t.Fatal(err)
	}
	snap.LossScale, snap.CleanSteps, snap.Skips = 65536, 2, 8
	return mustEncode(t, snap)
}

func mustRegroup(t testing.TB, s *Snapshot, m int) *Snapshot {
	t.Helper()
	at, err := s.Regroup(m)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// The loss scaler rides in three optional ZELC v1 header fields: an fp16
// snapshot carries them through encode and decode, and a snapshot without a
// scaler writes none of them, so the fp32 fixtures keep their bytes
// (TestZELCFormatGolden).
func TestZELCCarriesLossScaler(t *testing.T) {
	blob := scaledFixture(t)
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LossScale != 65536 || snap.CleanSteps != 2 || snap.Skips != 8 || snap.Boundaries() != snap.OptSteps+8 {
		t.Errorf("decoded scaler %g/%d/%d, %d boundaries; want 65536/2/8 and OptSteps+8",
			snap.LossScale, snap.CleanSteps, snap.Skips, snap.Boundaries())
	}
	if !bytes.Contains(blob, []byte(`"loss_scale":65536,"clean_steps":2,"overflow_skips":8`)) {
		t.Error("fp16 snapshot header does not carry the scaler fields")
	}
	if plain := readFixture(t, zelcFixtures[0].file); bytes.Contains(plain, []byte("loss_scale")) {
		t.Error("fp32 fixture carries a loss scale")
	}
}

// resealHeader returns blob with its JSON header replaced (header length
// and integrity trailer recomputed), so only the header is wrong.
func resealHeader(t testing.TB, blob []byte, edit func(hdr string) string) []byte {
	t.Helper()
	payload, err := openFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	hlen := int(binary.LittleEndian.Uint32(payload[8:12]))
	hdr := edit(string(payload[12 : 12+hlen]))
	out := append([]byte(nil), payload[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	out = append(out, payload[12+hlen:]...)
	return sealFrame(out)
}

// craftedHeaders are CRC-valid blobs whose headers lie about the geometry.
// The first two are the ones the old decoder trusted: a shard range that
// indexes past the payload, and a tensor count that passes the size check
// on an empty payload and then sizes an allocation.
func craftedHeaders(t testing.TB) map[string][]byte {
	blob := mustEncode(t, &Snapshot{WorldSize: 1, NumParams: 4, Slabs: [][]float32{{1, 2, 3, 4}}})
	empty := sealFrame(append([]byte(nil), blob[:len(blob)-frameTrailerLen-16]...)) // header only, no floats
	swap := func(from, to string) func(string) string {
		return func(hdr string) string {
			if !strings.Contains(hdr, from) {
				t.Fatalf("header %s has no %s", hdr, from)
			}
			return strings.Replace(hdr, from, to, 1)
		}
	}
	return map[string][]byte{
		"shard range past payload": resealHeader(t, blob, swap(`"hi":4`, `"hi":1000`)),
		"huge tensor count":        resealHeader(t, empty, swap(`"num_params":4,"opt_tensors":0`, `"num_params":0,"opt_tensors":1099511627776`)),
		"tensor count overflow":    resealHeader(t, blob, swap(`"opt_tensors":0`, `"opt_tensors":9223372036854775807`)),
		"params times four wraps":  resealHeader(t, blob, swap(`"num_params":4`, `"num_params":4611686018427387908`)),
		"shard table off by one":   resealHeader(t, blob, swap(`"lo":0`, `"lo":1`)),
		"missing shard table":      resealHeader(t, blob, swap(`"shards":[{"rank":0,"lo":0,"hi":4}]`, `"shards":[]`)),
		"world without shards":     resealHeader(t, blob, swap(`"world_size":1`, `"world_size":1000000000000`)),
		"negative steps":           resealHeader(t, blob, swap(`"opt_steps":0`, `"opt_steps":-1`)),
		"negative loss scale":      resealHeader(t, blob, swap(`"accum_micros":0`, `"accum_micros":0,"loss_scale":-65536`)),
		"skips without a scale":    resealHeader(t, blob, swap(`"accum_micros":0`, `"accum_micros":0,"overflow_skips":8`)),
		"negative clean steps":     resealHeader(t, blob, swap(`"accum_micros":0`, `"accum_micros":0,"loss_scale":65536,"clean_steps":-1`)),
		"header version disagrees": resealHeader(t, blob, swap(`"version":1`, `"version":2`)),
		"non-canonical spelling":   resealHeader(t, blob, swap(`{"version"`, `{ "version"`)),
		"unknown field":            resealHeader(t, blob, swap(`{"version"`, `{"extra":1,"version"`)),
		"header length past blob":  sealFrame(append(append([]byte(nil), blob[:8]...), 0xff, 0xff, 0xff, 0x7f)),
	}
}

// Corrupt, truncated and lying blobs must surface a decode error, never a
// panic, an outsized allocation or a silently wrong snapshot — the serve
// checkpoint route hands these bytes to arbitrary clients that will feed
// them back to zerotrain -load.
func TestDecodeSnapshotCorruptInput(t *testing.T) {
	blob := readFixture(t, "ckpt-v1-n4-midaccum.zelc")
	if _, err := DecodeSnapshot(blob); err != nil {
		t.Fatalf("control: pristine blob failed to decode: %v", err)
	}
	payload, err := openFrame(blob)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must fail, sealed or not: cutting the sealed
		// blob trips the trailer, and re-sealing a cut payload (a writer that
		// died mid-payload but "finished" the file) trips the geometry check.
		for cut := 0; cut < len(blob); cut++ {
			if _, err := DecodeSnapshot(blob[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded", cut, len(blob))
			}
		}
		for cut := 0; cut < len(payload); cut += 7 {
			if _, err := DecodeSnapshot(sealFrame(append([]byte(nil), payload[:cut]...))); err == nil {
				t.Fatalf("re-sealed %d/%d-byte payload decoded", cut, len(payload))
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), blob...), 0x00)); err == nil {
			t.Error("padded blob decoded")
		}
		if _, err := DecodeSnapshot(sealFrame(append(append([]byte(nil), payload...), 0, 0, 0, 0))); err == nil {
			t.Error("payload with one float too many decoded")
		}
	})
	t.Run("mid-payload bit flip", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x10
		if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("corrupt payload decoded (err=%v)", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		// Re-seal so only the magic is wrong, not the checksum.
		bad := append([]byte(nil), payload...)
		bad[0] = 'X'
		if _, err := DecodeSnapshot(sealFrame(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("wrong magic decoded (err=%v)", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		bad[4] = 0xff
		if _, err := DecodeSnapshot(sealFrame(bad)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("future version decoded (err=%v)", err)
		}
	})
	t.Run("unsealed", func(t *testing.T) {
		if _, err := DecodeSnapshot(payload); err == nil {
			t.Error("payload without integrity trailer decoded")
		}
	})
	for name, bad := range craftedHeaders(t) {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := DecodeSnapshot(bad)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("decoded to %d params, %d opt tensors", s.NumParams, optTensors(t, s))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting a %d-byte blob allocated %d bytes", len(bad), grew)
			}
		})
	}
}

// WriteTo refuses snapshots whose slabs do not match their own geometry
// rather than writing a file DecodeSnapshot would reject.
func TestEncodeRejectsInconsistentSnapshot(t *testing.T) {
	ok := func() *Snapshot { // 3 params over 2 ranks, one optimizer tensor
		return &Snapshot{WorldSize: 2, NumParams: 3, Slabs: [][]float32{make([]float32, 4), make([]float32, 2)}}
	}
	for name, mutate := range map[string]func(*Snapshot){
		"no world":             func(s *Snapshot) { s.WorldSize = 0 },
		"no params":            func(s *Snapshot) { s.NumParams, s.Slabs = 0, nil },
		"missing slab":         func(s *Snapshot) { s.Slabs = s.Slabs[:1] },
		"short slab":           func(s *Snapshot) { s.Slabs[0] = s.Slabs[0][:3] },
		"long slab":            func(s *Snapshot) { s.Slabs[1] = make([]float32, 3) },
		"slabs tiled unevenly": func(s *Snapshot) { s.Slabs[0], s.Slabs[1] = s.Slabs[1], s.Slabs[0] },
		"micros without accum": func(s *Snapshot) { s.AccumMicros, s.Slabs[0], s.Slabs[1] = 1, s.Slabs[0][:2], s.Slabs[1][:1] },
		"negative loss scale":  func(s *Snapshot) { s.LossScale = -1 },
		"infinite loss scale":  func(s *Snapshot) { s.LossScale = math.Inf(1) },
		"NaN loss scale":       func(s *Snapshot) { s.LossScale = math.NaN() },
		"skips without scale":  func(s *Snapshot) { s.Skips = 8 },
		"negative clean steps": func(s *Snapshot) { s.LossScale, s.CleanSteps = 65536, -1 },
	} {
		s := ok()
		mutate(s)
		if _, err := s.WriteTo(io.Discard); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	if _, err := ok().WriteTo(io.Discard); err != nil {
		t.Errorf("control: %v", err)
	}
}

// WriteSnapshotFile, each rank writing its own slab, writes exactly
// WriteTo's bytes over the target; a write that fails on one rank leaves the
// target as it was and no temp file beside it.
func TestSnapshotWriteFile(t *testing.T) {
	s := &Snapshot{WorldSize: 2, NumParams: 3, Slabs: [][]float32{{1, 2, 3, 4}, {5, 6}}}
	want := mustEncode(t, s)
	path := filepath.Join(t.TempDir(), "final.zelc")
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	ns, errs := writeWorld(s, path, s.Slabs)
	if errs[0] != nil || errs[1] != nil || ns[0] != int64(len(want)) {
		t.Fatalf("WriteSnapshotFile = (%d, %v), (%d, %v); want rank 0's (%d, nil)", ns[0], errs[0], ns[1], errs[1], len(want))
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes (%v), not WriteTo's %d", len(got), err, len(want))
	}

	// Rank 1's slab is empty, so rank 1 refuses it and rank 0 the file.
	if _, errs := writeWorld(s, path, [][]float32{s.Slabs[0], nil}); errs[0] == nil || errs[1] == nil {
		t.Fatalf("WriteSnapshotFile of an inconsistent slab succeeded: %v", errs)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a failed write changed the target (%d bytes, %v)", len(got), err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("a failed write left its temp file: %v", err)
	}
}

// maxCodecAllocs bounds one WriteTo (into a reused buffer) +
// DecodeSnapshot round trip of the snapshot below. The round trip measures
// 25 allocations (go1.24); the 2 on top are slack for allocation-count
// drift across Go releases (encoding/json), not room for a new per-tensor
// or per-shard allocation, either of which adds at least 3.
const maxCodecAllocs = 25 + 2

// The ZELC codec's allocation count is a deterministic function of the
// snapshot's geometry, so it is pinned here: a world-8 snapshot of 1<<16
// parameters with two optimizer tensors and position-dependent values.
func TestSnapshotCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("counts vary under -race: encoding/json's sync.Pool drops puts at random")
	}
	const n, numParams, optK = 8, 1 << 16, 2
	flat := make([]float32, (1+optK)*numParams) // params, then each tensor
	for i := range flat {
		if i < numParams {
			flat[i] = float32(i) * 0.5
		} else {
			flat[i] = float32(i - numParams)
		}
	}
	whole := &Snapshot{Stage: StageOSGrad, WorldSize: 1, NumParams: numParams, OptSteps: 3, Slabs: [][]float32{flat}}
	snap := mustRegroup(t, whole, n)
	var b bytes.Buffer
	b.Grow(len(mustEncode(t, snap)))
	allocs := testing.AllocsPerRun(10, func() {
		b.Reset()
		if _, err := snap.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(b.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxCodecAllocs {
		t.Errorf("WriteTo + DecodeSnapshot allocates %.0f objects, want ≤ %d", allocs, maxCodecAllocs)
	}
}

// FuzzDecodeSnapshot: any input is rejected or is exactly what WriteTo
// writes for the snapshot it decodes to; never a panic, and the floats it
// holds never outweigh the input. Each input is tried as it is and sealed —
// a mutated blob almost never keeps a valid checksum, so the sealed try is
// the one that gets mutations of the header and geometry past openFrame.
func FuzzDecodeSnapshot(f *testing.F) {
	unsealed := func(blob []byte) []byte { return blob[:len(blob)-frameTrailerLen] }
	for _, fx := range zelcFixtures {
		f.Add(unsealed(readFixture(f, fx.file)))
	}
	for _, bad := range craftedHeaders(f) {
		f.Add(unsealed(bad))
	}
	f.Add(unsealed(scaledFixture(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, sealFrame(append([]byte(nil), data...))} {
			s, err := DecodeSnapshot(blob)
			if err != nil {
				continue
			}
			held := 0
			for _, slab := range s.Slabs {
				held += 4 * len(slab)
			}
			if held > len(blob) {
				t.Fatalf("decoded %d bytes of floats from a %d-byte blob", held, len(blob))
			}
			again, err := encode(s)
			if err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("accepted a blob WriteTo would not write:\n in  %q\n out %q", blob, again)
			}
		}
	})
}

// Property: regrouping is a pure range map. Seeded chains N→M₁→…→M₄→N
// through Regroup, WriteTo and DecodeSnapshot, each Mᵢ drawn from 1..2Ψ (so
// worlds with empty shards occur), reproduce the original bytes; and Load
// from every intermediate gives every rank of a 2-rank stage-0 world (the
// whole of Ψ) and of a 3-rank stage-2 world (uneven partitions straddling
// the slabs) the same master, optimizer state and accumulator as Load from
// the original.
func TestPropertyRegroupChains(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 10, Heads: 2, Vocab: 7, Seq: 3} // the fixtures' model
	const seeds, hops = 8, 4
	for _, fx := range zelcFixtures {
		want := readFixture(t, fx.file)
		orig, err := DecodeSnapshot(want)
		if err != nil {
			t.Fatal(err)
		}
		var chain []*Snapshot
		for seed := int64(1); seed <= seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			at := orig
			for range hops {
				m := 1 + r.Intn(2*orig.NumParams)
				if at, err = DecodeSnapshot(mustEncode(t, mustRegroup(t, at, m))); err != nil {
					t.Fatalf("%s seed %d at %d ranks: %v", fx.file, seed, m, err)
				}
				chain = append(chain, at)
			}
			if !bytes.Equal(mustEncode(t, mustRegroup(t, at, orig.WorldSize)), want) {
				t.Errorf("%s seed %d: the chain back to %d ranks did not reproduce the bytes", fx.file, seed, orig.WorldSize)
			}
		}
		for _, world := range []struct {
			n     int
			stage Stage
		}{{2, StageDDP}, {3, StageOSGrad}} {
			comm.NewWorld(world.n).Run(func(c *comm.Comm) {
				tr := MustNew(c, cfg, Options{Stage: world.stage, Optimizer: optimizer.Spec{LR: testLR}})
				defer tr.Close()
				if err := tr.Load(orig); err != nil {
					t.Error(err)
					return
				}
				ref := domainState(tr)
				for i, s := range chain {
					if err := tr.Load(s); err != nil {
						t.Error(err)
						return
					}
					for j, got := range domainState(tr) {
						if d := bitDiff(got, ref[j]); d != "" {
							t.Errorf("%s seed %d hop %d (%d ranks), %v rank %d of %d: domain tensor %d%s loading the original",
								fx.file, 1+i/hops, 1+i%hops, s.WorldSize, world.stage, c.Rank(), world.n, j, d)
						}
					}
				}
			})
		}
	}
}

// domainState copies what Load writes on tr's rank: the master, each
// optimizer tensor and the accumulator over the rank's domain, then the
// optimizer's step count and the pending micro-batches.
func domainState(tr *Trainer) [][]float32 {
	out := [][]float32{slices.Clone(tr.master)}
	for _, s := range tr.opt.State() {
		out = append(out, slices.Clone(s))
	}
	return append(out, slices.Clone(tr.accum), []float32{float32(tr.opt.Steps()), float32(tr.accumMicros)})
}
