package zero

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// writeWorld runs WriteSnapshotFile on a world of s.WorldSize ranks, rank r
// writing slabs[r] under s's header, and returns each rank's results.
func writeWorld(s *Snapshot, path string, slabs [][]float32) ([]int64, []error) {
	hdr := *s
	hdr.Slabs = nil
	ns, errs := make([]int64, s.WorldSize), make([]error, s.WorldSize)
	comm.NewWorld(s.WorldSize).Run(func(c *comm.Comm) {
		ns[c.Rank()], errs[c.Rank()] = WriteSnapshotFile(c, path, hdr, slabs[c.Rank()])
	})
	return ns, errs
}

// checkNoLeak fails the test if goroutines started since baseline are still
// running once the world is down (stream workers exit asynchronously, so it
// waits a little for them).
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines left running", n-baseline)
	}
}

// Folding the CRC-32s of a string's consecutive parts with crc32Combine
// gives the CRC-32 of the whole, for 2–8 parts of any length, empty ones
// included.
func TestCRC32CombineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(1<<12))
		rng.Read(data)
		cuts := make([]int, 1+rng.Intn(7)) // 2–8 parts
		for i := range cuts {
			cuts[i] = rng.Intn(len(data) + 1)
		}
		cuts = append(cuts, 0, len(data))
		slices.Sort(cuts)
		crc := crc32.ChecksumIEEE(data[:0])
		for i := 1; i < len(cuts); i++ {
			part := data[cuts[i-1]:cuts[i]]
			crc = crc32Combine(crc, crc32.ChecksumIEEE(part), int64(len(part)))
		}
		if want := crc32.ChecksumIEEE(data); crc != want {
			t.Fatalf("trial %d: %d bytes cut at %v fold to %08x, want %08x", trial, len(data), cuts, crc, want)
		}
	}
}

// The file the ranks write together is byte for byte WriteTo's for the same
// state, at N ∈ {1, 3, 8} × stages 0–3 × fp32/fp16 under Adam, momentum SGD
// and LAMB (two, one and two optimizer tensors): SaveFile on a boundary
// against Save, and a mid-accumulation capture, accumulator slab included,
// against the assembled snapshot.
func TestWriteSnapshotFileMatchesWriteTo(t *testing.T) {
	cfg := testConfig()
	const batch = 24 // divisible by every N
	ids, targets := model.SyntheticBatch(13, batch, cfg.Seq, cfg.Vocab)
	kinds := []optimizer.Kind{optimizer.KindAdam, optimizer.KindSGD, optimizer.KindLAMB}
	i := 0
	for _, n := range []int{1, 3, 8} {
		for _, stage := range []Stage{StageDDP, StageOS, StageOSGrad, StageFull} {
			for _, fp16 := range []bool{false, true} {
				kind := kinds[i%len(kinds)]
				i++
				t.Run(fmt.Sprintf("n%d/%v/%s/fp16=%v", n, stage, kind, fp16), func(t *testing.T) {
					opts := Options{Stage: stage, Seed: testSeed, Optimizer: optimizer.Spec{Kind: kind, LR: testLR}, FP16Compute: fp16}
					if fp16 {
						opts.InitialLossScale = 1024
					}
					dir := t.TempDir()
					boundary, mid := filepath.Join(dir, "boundary.zelc"), filepath.Join(dir, "mid.zelc")
					var saved *Snapshot
					var midSnap Snapshot
					slabs := make([][]float32, n)
					comm.NewWorld(n).Run(func(c *comm.Comm) {
						tr := MustNew(c, cfg, opts)
						defer tr.Close()
						for m := 0; m < 2; m++ {
							tr.Forward(ids, targets, batch)
							tr.Backward()
						}
						tr.Update()
						if _, err := tr.SaveFile(boundary); err != nil {
							t.Error(err)
						}
						if s := tr.Save(); s != nil {
							saved = s
						}
						tr.Forward(ids, targets, batch)
						tr.Backward()
						slab, hdr := tr.CaptureShard(nil)
						slabs[c.Rank()] = slab
						if c.Rank() == 0 {
							midSnap = hdr
						}
						if _, err := WriteSnapshotFile(c, mid, hdr, slab); err != nil {
							t.Error(err)
						}
					})
					midSnap.Slabs = slabs
					if midSnap.AccumMicros != 1 {
						t.Fatalf("mid-accumulation capture has AccumMicros %d, want 1", midSnap.AccumMicros)
					}
					for _, c := range []struct {
						path string
						snap *Snapshot
					}{{boundary, saved}, {mid, &midSnap}} {
						got, err := os.ReadFile(c.path)
						if err != nil {
							t.Fatal(err)
						}
						if want := mustEncode(t, c.snap); !bytes.Equal(got, want) {
							t.Errorf("%s: %d bytes differ from WriteTo's %d", filepath.Base(c.path), len(got), len(want))
						}
					}
				})
			}
		}
	}
}

// A stale, longer temp file is truncated away: the file that replaces it
// is WriteTo's bytes exactly.
func TestWriteSnapshotFileTruncatesStaleTemp(t *testing.T) {
	s := mustRegroup(t, &Snapshot{WorldSize: 1, NumParams: 1000, OptSteps: 2, Slabs: [][]float32{make([]float32, 3000)}}, 3)
	want := mustEncode(t, s)
	path := filepath.Join(t.TempDir(), "ckpt.zelc")
	if err := os.WriteFile(path+".tmp", bytes.Repeat([]byte{0xAB}, 3*len(want)), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	if _, errs := writeWorld(s, path, s.Slabs); errs[0] != nil {
		t.Fatal(errs)
	}
	checkNoLeak(t, baseline)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes (%v), not WriteTo's %d", len(got), err, len(want))
	}
	if _, err := DecodeSnapshot(want); err != nil {
		t.Fatal(err)
	}
}

// When one rank cannot write its slab (here its path lies in a missing
// directory), rank 0 fails the checkpoint naming that rank, every rank
// returns, the target keeps its previous bytes and no goroutine is left.
func TestWriteSnapshotFileRankFailure(t *testing.T) {
	s := mustRegroup(t, &Snapshot{WorldSize: 1, NumParams: 100, Slabs: [][]float32{make([]float32, 200)}}, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.zelc")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	const bad = 2
	hdr := *s
	hdr.Slabs = nil
	errs := make([]error, s.WorldSize)
	baseline := runtime.NumGoroutine()
	comm.NewWorld(s.WorldSize).Run(func(c *comm.Comm) {
		p := path
		if c.Rank() == bad {
			p = filepath.Join(dir, "missing", "ckpt.zelc")
		}
		_, errs[c.Rank()] = WriteSnapshotFile(c, p, hdr, s.Slabs[c.Rank()])
	})
	checkNoLeak(t, baseline)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), fmt.Sprintf("rank %d", bad)) {
		t.Errorf("rank 0 returned %v, want an error naming rank %d", errs[0], bad)
	}
	if errs[bad] == nil {
		t.Errorf("rank %d's failed write returned no error", bad)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Errorf("a failed checkpoint changed the target (%q, %v)", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("a failed checkpoint left its temp file: %v", err)
	}
}

// One final checkpoint (SaveFile) at serve-snap's shape (Ψ = 110,336, Adam,
// stage 2, 2 ranks) allocates at most 0.05× the 12Ψ-byte model state: every
// rank encodes its partition straight from its live state, so what is left
// is headers, file handles and the three-float reports. The per-save figure
// is the signed difference between worlds that save 4 and 2 times, so what
// the first save allocates once — the lent encode buffers — cancels out.
func TestSaveFileAllocations(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 64, Heads: 4, Vocab: 128, Seq: 32}
	const n = 2
	opts := Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed}
	run := func(saves int) int64 {
		path := filepath.Join(t.TempDir(), "final.zelc")
		var grew int64
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, opts)
			defer tr.Close()
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < saves; i++ {
				if _, err := tr.SaveFile(path); err != nil {
					t.Error(err)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				grew = int64(after.TotalAlloc - before.TotalAlloc)
			}
		})
		return grew
	}
	run(1) // the encode buffers are lent process-wide: warm them first
	short, long := run(2), run(4)
	perSave := float64(long-short) / 2
	state := float64(12 * cfg.ParamCount()) // fp32 master + Adam's two moments
	t.Logf("%.0f bytes per save, %.4f× the model state", perSave, perSave/state)
	if perSave > 0.05*state {
		t.Errorf("a final checkpoint allocates %.0f bytes, %.4f× the %.0f-byte model state; want ≤ 0.05×",
			perSave, perSave/state, state)
	}
}

// The header length a non-root rank places its slab by is the canonical
// header's, over random clock fields — step and skip counters from 0 to
// nine digits, loss scales from 2^-80 to 2^80 (both of encoding/json's
// float forms) or none — at N ∈ 1..64.
func TestHeaderLenMatchesHeader(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	count := func() int { return r.Intn(int(math.Pow10(r.Intn(10)))) }
	for i := 0; i < 3000; i++ {
		n, accum := 1+r.Intn(64), count()%3
		s := Snapshot{
			Stage: Stage(r.Intn(4)), WorldSize: n, NumParams: r.Intn(1 << 30),
			OptSteps: count(), AccumMicros: accum, CleanSteps: count(), Skips: count(),
		}
		if r.Intn(2) == 0 {
			s.LossScale = math.Ldexp(1+r.Float64()*float64(r.Intn(2)), r.Intn(161)-80)
		}
		parts, k := comm.Partition(s.NumParams, n), 1+min(accum, 1)+r.Intn(3)
		if got, want := s.headerLen(parts, k), len(s.header(parts, k)); got != want {
			t.Fatalf("%+v, %d tensors: headerLen %d, header %d bytes: %s", s, k, got, want, s.header(parts, k))
		}
	}
}

// One checkpoint write on 64 ranks allocates less per rank than its 2.3 KB
// header: a rank other than 0 derives the header's length rather than
// marshalling it, so what it allocates is the partition (16 B a rank), its
// file handle and its three-float report. The per-write figure is the
// difference between worlds that write 8 and 4 times, so what the first
// write allocates once — the lent encode buffers — cancels out; the least
// of three tries drops what goroutines other tests left behind allocate
// meanwhile.
func TestNonRootWriteAllocatesLessThanItsHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals vary under -race")
	}
	const n = 64
	s := Snapshot{Stage: StageOSGrad, WorldSize: n, NumParams: 64 * 1000, OptSteps: 123456, LossScale: 65536, CleanSteps: 17}
	parts := comm.Partition(s.NumParams, n)
	run := func(writes int) int64 {
		path := filepath.Join(t.TempDir(), "ckpt.zelc")
		var before, after runtime.MemStats
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			slab := make([]float32, 3*parts[c.Rank()].Len())
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < writes; i++ {
				if _, err := WriteSnapshotFile(c, path, s, slab); err != nil {
					t.Error(err)
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	run(1) // the encode buffers are lent process-wide: warm them first
	perRank := math.Inf(1)
	for range 3 {
		perRank = min(perRank, float64(run(8)-run(4))/4/n)
	}
	hdr := len(s.header(parts, 3))
	t.Logf("%.0f bytes per rank per write, header %d bytes", perRank, hdr)
	if perRank >= float64(hdr) {
		t.Errorf("a write allocates %.0f bytes per rank, not less than its %d-byte header", perRank, hdr)
	}
}
