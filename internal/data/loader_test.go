package data

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testLoaderConfig(path string) Config {
	return Config{Path: path, Tokenizer: "byte", SeqLen: 8, ShuffleBuffer: 4, Seed: 11}
}

// Two loaders over the same (file, config, seed) emit bitwise-identical
// batch streams — the property every rank of a world relies on.
func TestLoaderDeterministicAcrossInstances(t *testing.T) {
	path, _ := writeCorpus(t, 17)
	cfg := testLoaderConfig(path)
	a, err := Open(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for step := 0; step < 50; step++ {
		ai, at := a.NextBatch()
		bi, bt := b.NextBatch()
		for i := range ai {
			if ai[i] != bi[i] || at[i] != bt[i] {
				t.Fatalf("step %d token %d: (%d,%d) vs (%d,%d)", step, i, ai[i], at[i], bi[i], bt[i])
			}
		}
	}
}

// Batch shape and the next-token target contract: targets are ids shifted
// by one within each row's stream.
func TestLoaderBatchShapeAndTargets(t *testing.T) {
	path, _ := writeCorpus(t, 9)
	cfg := testLoaderConfig(path)
	l, err := Open(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for step := 0; step < 10; step++ {
		ids, targets := l.NextBatch()
		if len(ids) != 4*cfg.SeqLen || len(targets) != len(ids) {
			t.Fatalf("batch shape %d/%d, want %d", len(ids), len(targets), 4*cfg.SeqLen)
		}
		for row := 0; row < 4; row++ {
			base := row * cfg.SeqLen
			for i := 0; i < cfg.SeqLen-1; i++ {
				if targets[base+i] != ids[base+i+1] {
					t.Fatalf("step %d row %d pos %d: target %d != next id %d",
						step, row, i, targets[base+i], ids[base+i+1])
				}
			}
		}
	}
	if l.batches != 10 || l.Tokens() != int64(10*4*cfg.SeqLen) {
		t.Fatalf("counters: batches %d tokens %d", l.batches, l.Tokens())
	}
}

// Row blocks follow the shard assignment: with a byte tokenizer and
// single-char documents, rank r's rows contain only shard-r document
// bytes (plus EOT separators).
func TestLoaderRowBlocksMatchShards(t *testing.T) {
	// Doc d is the single letter 'a'+d repeated; d mod 2 fixes its shard.
	var sb strings.Builder
	for d := 0; d < 10; d++ {
		sb.WriteString(strings.Repeat(string(rune('a'+d)), 20))
		sb.WriteString("\n\n")
	}
	path := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Path: path, Tokenizer: "byte", SeqLen: 6, ShuffleBuffer: 2, Seed: 3}
	l, err := Open(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for step := 0; step < 20; step++ {
		ids, _ := l.NextBatch()
		for row := 0; row < 4; row++ {
			rank := row / 2 // rowsPer = 2
			for i := 0; i < cfg.SeqLen; i++ {
				id := ids[row*cfg.SeqLen+i]
				if id == EOT {
					continue
				}
				doc := id - 'a'
				if doc < 0 || doc >= 10 {
					t.Fatalf("unexpected token %d", id)
				}
				if shardOf(doc, 2) != rank {
					t.Fatalf("step %d: doc %d token in rank %d's rows", step, doc, rank)
				}
			}
		}
	}
}

// The working set stays bounded on a corpus much larger than the shuffle
// buffer: resident tokens never exceed the shuffle buffer + one batch +
// one document per stream, regardless of how much of the file streams by.
func TestLoaderBoundedMemory(t *testing.T) {
	// 400 documents: two orders of magnitude beyond 4 shuffled docs/shard.
	var sb strings.Builder
	for d := 0; d < 400; d++ {
		fmt.Fprintf(&sb, "doc %d %s\n\n", d, strings.Repeat("lorem ipsum dolor sit amet ", 2))
	}
	path := filepath.Join(t.TempDir(), "big.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Path: path, Tokenizer: "byte", SeqLen: 16, ShuffleBuffer: 4, Seed: 5, ChunkBytes: 1 << 10, MaxDocBytes: 1 << 10}
	const world = 2
	l, err := Open(cfg, 4, world)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Per stream: shuffle (4 docs ≤ 4·(maxDoc+1)) + ring (< seqLen+1+doc).
	perStream := cfg.ShuffleBuffer*(cfg.MaxDocBytes+1) + cfg.SeqLen + 1 + cfg.MaxDocBytes + 1
	limit := world * perStream
	for step := 0; step < 500; step++ {
		l.NextBatch()
		if got := l.residentTokens(); got > limit {
			t.Fatalf("step %d: resident %d tokens exceeds bound %d", step, got, limit)
		}
	}
	if l.Epochs() < 1 {
		t.Fatalf("expected at least one full pass over the corpus, got %d", l.Epochs())
	}
}

// After warm-up, batch production allocates nothing — the PR 5 contract
// extended to the data path.
func TestLoaderSteadyStateAllocations(t *testing.T) {
	path, _ := writeCorpus(t, 31)
	cfg := testLoaderConfig(path)
	l, err := Open(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 50; i++ { // warm-up: pools fill, ring reaches high water
		l.NextBatch()
	}
	avg := testing.AllocsPerRun(100, func() { l.NextBatch() })
	if avg > 0.5 {
		t.Fatalf("steady-state NextBatch allocates %.1f allocs/op, want 0", avg)
	}
}

// The same contract in BPE mode, at the corpus-accum4 benchmark's shape
// (vocab 512, world 2, seq 32, 4 rows, 8 shuffled docs): once every
// stream's encode scratch has reached its longest document, tokenizing
// allocates nothing either.
func TestLoaderSteadyStateAllocationsBPE(t *testing.T) {
	cfg := Config{Path: exampleCorpus, Tokenizer: "bpe", VocabSize: 512, SeqLen: 32, ShuffleBuffer: 8, Seed: 7}
	l, err := Open(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ { // warm-up: several epochs wrap
		l.NextBatch()
	}
	if l.Epochs() < 1 {
		t.Fatalf("warm-up did not wrap an epoch (epochs %d)", l.Epochs())
	}
	avg := testing.AllocsPerRun(100, func() { l.NextBatch() })
	if avg != 0 {
		t.Fatalf("steady-state BPE NextBatch allocates %.2f allocs/op, want 0", avg)
	}
}

// BPE mode trains on the corpus head at Open and the loader reports the
// actual vocabulary; a .json tokenizer spec loads a saved vocab.
func TestLoaderTokenizerModes(t *testing.T) {
	path, _ := writeCorpus(t, 8)
	bpe := Config{Path: path, Tokenizer: "bpe", VocabSize: 300, SeqLen: 8, ShuffleBuffer: 2, Seed: 1}
	l, err := Open(bpe, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.VocabSize() <= 257 || l.VocabSize() > 300 {
		t.Fatalf("bpe vocab %d, want in (257, 300]", l.VocabSize())
	}
	vocabPath := filepath.Join(t.TempDir(), "vocab.json")
	if err := SaveTokenizerFile(l.Tokenizer(), vocabPath); err != nil {
		t.Fatal(err)
	}
	wantVocab := l.VocabSize()
	l.Close()

	fromFile := Config{Path: path, Tokenizer: vocabPath, SeqLen: 8, ShuffleBuffer: 2, Seed: 1}
	l2, err := Open(fromFile, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.VocabSize() != wantVocab {
		t.Fatalf("loaded vocab %d, want %d", l2.VocabSize(), wantVocab)
	}
}

// Open rejects bad geometry, unknown tokenizers and unusable corpora with
// structured errors.
func TestOpenErrors(t *testing.T) {
	path, _ := writeCorpus(t, 4)
	ok := testLoaderConfig(path)
	cases := []struct {
		name  string
		cfg   Config
		rows  int
		world int
		want  error
	}{
		{"rows not multiple of world", ok, 3, 2, ErrConfig},
		{"zero rows", ok, 0, 1, ErrConfig},
		{"seq too short", Config{Path: path, SeqLen: 1}, 2, 1, ErrConfig},
		{"negative shuffle", Config{Path: path, SeqLen: 8, ShuffleBuffer: -1}, 2, 1, ErrConfig},
		{"unknown tokenizer", Config{Path: path, Tokenizer: "wordpiece", SeqLen: 8}, 2, 1, ErrConfig},
		{"low bpe budget", Config{Path: path, Tokenizer: "bpe", VocabSize: 10, SeqLen: 8}, 2, 1, ErrVocab},
	}
	for _, tc := range cases {
		if _, err := Open(tc.cfg, tc.rows, tc.world); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Open(testLoaderConfig(filepath.Join(t.TempDir(), "missing.txt")), 2, 1); err == nil {
		t.Error("missing corpus: want error")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(testLoaderConfig(empty), 2, 1)
	if err == nil {
		// The empty corpus surfaces on first fill (streams are lazy);
		// either Open or the first batch must fail cleanly.
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty corpus: want Open error or NextBatch panic")
				}
			}()
			l.NextBatch()
		}()
		l.Close()
	}
}

// A directory corpus is bitwise-equivalent to its concatenation: loaders
// over the split and single-file forms of the same corpus emit identical
// batch streams, far enough to wrap epochs on every shard.
func TestLoaderDirectoryMatchesSingleFile(t *testing.T) {
	single, _ := writeCorpus(t, 17)
	dir, _ := writeCorpusDir(t, 17, 3)
	a, err := Open(testLoaderConfig(single), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(testLoaderConfig(dir), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for step := 0; step < 80; step++ {
		ai, at := a.NextBatch()
		bi, bt := b.NextBatch()
		for i := range ai {
			if ai[i] != bi[i] || at[i] != bt[i] {
				t.Fatalf("step %d token %d: single (%d,%d) vs directory (%d,%d)",
					step, i, ai[i], at[i], bi[i], bt[i])
			}
		}
	}
	if a.Epochs() != b.Epochs() {
		t.Fatalf("epochs: single %d vs directory %d", a.Epochs(), b.Epochs())
	}
	if b.Epochs() < 1 {
		t.Fatalf("test too short to cover the multi-file epoch wrap (epochs %d)", b.Epochs())
	}
}

// The zero-allocation steady state survives multi-file epoch wraps: the
// seek-based restart reuses every open handle and buffer.
func TestLoaderDirectorySteadyStateAllocations(t *testing.T) {
	dir, _ := writeCorpusDir(t, 31, 4)
	l, err := Open(testLoaderConfig(dir), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 50; i++ { // warm-up: pools fill, several epochs wrap
		l.NextBatch()
	}
	if l.Epochs() < 1 {
		t.Fatalf("warm-up did not wrap an epoch (epochs %d); allocs check would miss the wrap path", l.Epochs())
	}
	avg := testing.AllocsPerRun(100, func() { l.NextBatch() })
	if avg > 0.5 {
		t.Fatalf("steady-state NextBatch over a directory allocates %.1f allocs/op, want 0", avg)
	}
}

// BPE mode samples across the file list: training on a directory corpus
// succeeds and yields the same vocabulary as the concatenated file.
func TestLoaderDirectoryBPE(t *testing.T) {
	single, _ := writeCorpus(t, 8)
	dir, _ := writeCorpusDir(t, 8, 2)
	a, err := Open(Config{Path: single, Tokenizer: "bpe", VocabSize: 300, SeqLen: 8, ShuffleBuffer: 2, Seed: 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(Config{Path: dir, Tokenizer: "bpe", VocabSize: 300, SeqLen: 8, ShuffleBuffer: 2, Seed: 1}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.VocabSize() != b.VocabSize() {
		t.Fatalf("bpe vocab: single %d vs directory %d (sample must be the concatenation)",
			a.VocabSize(), b.VocabSize())
	}
}

// TrainFromCorpus frames a directory exactly like the concatenated file.
func TestTrainFromCorpusDirectory(t *testing.T) {
	single, _ := writeCorpus(t, 12)
	dir, _ := writeCorpusDir(t, 12, 3)
	ta, sa, err := TrainFromCorpus(single, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, sb, err := TrainFromCorpus(dir, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Docs != sb.Docs || sa.SampleBytes != sb.SampleBytes || sa.SampleTokens != sb.SampleTokens {
		t.Fatalf("train stats diverge: single %+v vs directory %+v", sa, sb)
	}
	if ta.VocabSize() != tb.VocabSize() {
		t.Fatalf("vocab sizes diverge: %d vs %d", ta.VocabSize(), tb.VocabSize())
	}
}
