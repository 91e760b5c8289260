package elastic

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/zero"
)

// The ZELC v1 format goldens live under internal/zero/testdata (where the
// codec is headed): a seeded 4-rank stage-2 Adam run captured after 3
// optimizer steps, once on the boundary and once with one of two
// micro-batches pending in the accumulator.
const fixtureDir = "../zero/testdata"

// fixtureConfig is a model small enough to commit its checkpoints; its
// parameter count divides by neither 4 nor 3, so the shard table is uneven.
var fixtureConfig = model.Config{Layers: 1, Hidden: 10, Heads: 2, Vocab: 7, Seq: 3}

func fixtureBlob(t *testing.T, midAccum bool) []byte {
	t.Helper()
	cfg := fixtureConfig
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(21, batch, cfg.Seq, cfg.Vocab)
	opts := zero.Options{Stage: zero.StageOSG, LR: testLR, Seed: testSeed}
	micros, extra := 1, 0
	if midAccum {
		micros, extra = 2, 1
	}
	shards := make([]zero.ShardState, n)
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		tr := zero.MustNew(c, cfg, opts)
		defer tr.Close()
		for m := 0; m < 3*micros+extra; m++ {
			tr.Forward(ids, targets, batch)
			tr.Backward()
			if m < 3*micros && (m+1)%micros == 0 {
				tr.Update()
			}
		}
		tr.CaptureShard(&shards[c.Rank()])
	})
	ck, err := FromShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestZELCFixtures pins the on-disk format: the seeded run encodes to the
// committed bytes, and the committed bytes decode and re-encode unchanged.
// ZELC_WRITE_FIXTURES=1 (re)writes the files.
func TestZELCFixtures(t *testing.T) {
	for _, fx := range []struct {
		file     string
		midAccum bool
	}{
		{"ckpt-v1-n4.zelc", false},
		{"ckpt-v1-n4-midaccum.zelc", true},
	} {
		path := filepath.Join(fixtureDir, fx.file)
		blob := fixtureBlob(t, fx.midAccum)
		if os.Getenv("ZELC_WRITE_FIXTURES") != "" {
			if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: seeded run no longer encodes to the committed bytes", fx.file)
		}
		ck, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		again, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode → encode changed the bytes", fx.file)
		}
	}
}
