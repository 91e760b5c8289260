package data

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/arena"
)

// DefaultTrainBytes caps the corpus sample BPE training reads — training
// is O(merges × sample), so the cap bounds both memory and Open latency.
const DefaultTrainBytes = 256 << 10

// DefaultShuffleDocs is the per-shard shuffle-buffer size in documents.
const DefaultShuffleDocs = 64

// Config describes a corpus pipeline. It mirrors the "data" section of the
// engine config (internal/engine.DataConfig) but is expressed in resolved
// terms: every field is concrete, no defaults remain to apply except the
// zero-value sizing knobs.
type Config struct {
	// Path is the corpus: a text file, or a directory whose sorted
	// regular files form one logical corpus (see corpusFiles). Documents
	// are blank-line-separated runs of text (paragraphs) and never span a
	// file boundary; see the package comment for framing.
	Path string
	// Tokenizer selects the token mapping: "byte" (the merge-free byte
	// tokenizer), "bpe" (train a byte-level BPE vocab on the first
	// DefaultTrainBytes of the corpus at Open), or a path ending in ".json"
	// holding a vocab written by SaveTokenizerFile.
	Tokenizer string
	// VocabSize is the BPE merge budget (ids including the 257 byte+EOT
	// floor); ignored for "byte" and ".json" tokenizers.
	VocabSize int
	// SeqLen is the micro-batch sequence length.
	SeqLen int
	// ShuffleBuffer is the per-shard shuffle-buffer size in documents
	// (0 = DefaultShuffleDocs).
	ShuffleBuffer int
	// Seed drives the shuffle order.
	Seed int64
	// ChunkBytes and MaxDocBytes size the streaming reader
	// (0 = DefaultChunkBytes / DefaultMaxDocBytes).
	ChunkBytes  int
	MaxDocBytes int
}

// ErrConfig marks an invalid data.Config.
var ErrConfig = errors.New("data: invalid config")

// Loader streams deterministic global micro-batches from a corpus (one
// file, or a directory of files treated as their sorted concatenation).
// One Loader serves one rank, but its output is rank-independent: it
// maintains all `world` shard streams and interleaves them row-block by
// row-block, so every rank's Loader (same corpus, config, seed) emits the
// same global batch while rank r's row block [r·B/N, (r+1)·B/N) — the rows
// zero.Trainer assigns to rank r — contains exactly shard r's documents.
//
// NextBatch returns buffers owned by the Loader, valid until the next
// call; a warmed Loader produces batches with zero heap allocation.
type Loader struct {
	cfg     Config
	tok     *Tokenizer
	streams []*shardStream
	ints    *arena.Arena[int]

	rows, rowsPer int // global micro-batch rows, rows per rank
	ids, targets  []int
	tokens        int64
	batches       int64
}

// Open builds the pipeline: tokenizer (trained, loaded or byte-level),
// one shard stream per rank, and the packer. rows is the global
// micro-batch row count; world the data-parallel degree (rows must divide
// evenly). The corpus must hold at least `world` documents, so no shard
// starves.
func Open(cfg Config, rows, world int) (*Loader, error) {
	if rows <= 0 || world <= 0 || rows%world != 0 {
		return nil, fmt.Errorf("%w: rows %d must be a positive multiple of world %d", ErrConfig, rows, world)
	}
	if cfg.SeqLen < 2 {
		return nil, fmt.Errorf("%w: seq_len %d (want ≥ 2)", ErrConfig, cfg.SeqLen)
	}
	if cfg.ShuffleBuffer < 0 {
		return nil, fmt.Errorf("%w: shuffle_buffer %d (want ≥ 0)", ErrConfig, cfg.ShuffleBuffer)
	}
	if cfg.ShuffleBuffer == 0 {
		cfg.ShuffleBuffer = DefaultShuffleDocs
	}
	tok, err := openTokenizer(cfg)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		cfg:     cfg,
		tok:     tok,
		ints:    arena.New[int](),
		rows:    rows,
		rowsPer: rows / world,
		ids:     make([]int, rows*cfg.SeqLen),
		targets: make([]int, rows*cfg.SeqLen),
	}
	for r := 0; r < world; r++ {
		s, err := newShardStream(cfg.Path, r, world, tok, cfg.Seed, cfg.ChunkBytes, cfg.MaxDocBytes, l.ints)
		if err != nil {
			l.Close()
			return nil, err
		}
		// Every stream applies the shared tokenizer through its own
		// scratch, but encodeInto scratch lives on the Tokenizer; give
		// each stream a private tokenizer view to keep fills reentrant.
		if r > 0 {
			s.tok = tok.clone()
		}
		l.streams = append(l.streams, s)
	}
	return l, nil
}

// clone returns an encode-independent copy sharing the immutable tables.
func (t *Tokenizer) clone() *Tokenizer {
	return &Tokenizer{merges: t.merges, rank: t.rank, vocab: t.vocab}
}

// openTokenizer resolves the Tokenizer field: byte, trained-on-corpus BPE,
// or a saved vocab file.
func openTokenizer(cfg Config) (*Tokenizer, error) {
	switch {
	case cfg.Tokenizer == "" || cfg.Tokenizer == "byte":
		return newByteTokenizer(), nil
	case cfg.Tokenizer == "bpe":
		sample, err := readSample(cfg.Path, DefaultTrainBytes)
		if err != nil {
			return nil, err
		}
		if len(sample) == 0 {
			return nil, fmt.Errorf("%w: empty corpus %s", ErrCorpus, cfg.Path)
		}
		vocab := cfg.VocabSize
		if vocab == 0 {
			vocab = 512
		}
		return trainBPE(sample, vocab)
	case strings.HasSuffix(cfg.Tokenizer, ".json"):
		return loadTokenizerFile(cfg.Tokenizer)
	default:
		return nil, fmt.Errorf("%w: tokenizer %q (want \"byte\", \"bpe\" or a .json vocab path)", ErrConfig, cfg.Tokenizer)
	}
}

// readSample reads up to max bytes from the head of the corpus at path
// (the bounded BPE training sample), walking the file list in corpus
// order with a document separator between files.
func readSample(path string, max int) ([]byte, error) {
	paths, err := corpusFiles(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, max)
	for _, p := range paths {
		room := max - len(buf)
		if len(buf) > 0 {
			room -= 2 // the inter-file document separator
		}
		if room <= 0 {
			break
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("data: opening corpus: %w", err)
		}
		chunk := make([]byte, room)
		n, err := io.ReadFull(f, chunk)
		f.Close()
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("data: sampling corpus: %w", err)
		}
		if n == 0 {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, '\n', '\n')
		}
		buf = append(buf, chunk[:n]...)
	}
	return buf, nil
}

// NextBatch packs the next global micro-batch: rows×SeqLen ids and their
// next-token targets, row-major, rank r's row block drawn from shard
// stream r. The returned slices are reused on the next call.
func (l *Loader) NextBatch() (ids, targets []int) {
	seq := l.cfg.SeqLen
	for r, s := range l.streams {
		for row := 0; row < l.rowsPer; row++ {
			if err := s.fill(seq+1, l.cfg.ShuffleBuffer); err != nil {
				// Streams are infinite (epoch-looping); the only failures
				// are corpus-gone-unreadable classes, which are
				// programming or environment errors mid-run.
				panic(err)
			}
			base := (r*l.rowsPer + row) * seq
			copy(l.ids[base:base+seq], s.ring[s.head:s.head+seq])
			copy(l.targets[base:base+seq], s.ring[s.head+1:s.head+1+seq])
			s.head += seq
		}
	}
	l.tokens += int64(l.rows * seq)
	l.batches++
	return l.ids, l.targets
}

// VocabSize returns the tokenizer's id count; the model's vocabulary must
// be at least this large.
func (l *Loader) VocabSize() int { return l.tok.VocabSize() }

// Tokenizer returns the loader's tokenizer (shared tables; do not encode
// concurrently with NextBatch).
func (l *Loader) Tokenizer() *Tokenizer { return l.tok }

// Tokens returns the total tokens emitted so far.
func (l *Loader) Tokens() int64 { return l.tokens }

// Epochs returns the number of completed passes over the corpus by the
// slowest shard stream.
func (l *Loader) Epochs() int {
	min := -1
	for _, s := range l.streams {
		if min == -1 || s.epochs < min {
			min = s.epochs
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// residentTokens reports the tokens currently buffered across shuffle
// buffers and token queues — the bounded working set.
func (l *Loader) residentTokens() int {
	n := 0
	for _, s := range l.streams {
		for _, d := range s.shuffle {
			n += len(d)
		}
		n += len(s.ring) - s.head
	}
	return n
}

// Close releases file handles and pooled buffers.
func (l *Loader) Close() error {
	var first error
	for _, s := range l.streams {
		s.release()
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	l.streams = nil
	l.ints.Release()
	return first
}
