package data

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/arena"
)

// shardOf is the per-rank document assignment: document d of an epoch
// belongs to rank d mod world. It is a pure function, so for any world
// size the rank shards are disjoint, cover the corpus exactly, and are
// identical on every run — the property that keeps simulated data
// parallelism reproducible (each rank derives the same global batch from
// the same file and seed, and rank r's rows really are shard r's
// documents).
func shardOf(doc, world int) int {
	if world <= 0 {
		panic("data: world must be positive")
	}
	return doc % world
}

// ErrCorpus marks an unusable corpus file (empty, or fewer documents than
// ranks, so some shard would starve).
var ErrCorpus = errors.New("data: unusable corpus")

// shardStream produces rank r's token stream: it scans the corpus
// documents in order, keeps only those shardOf assigns to r, tokenizes
// them, runs them through a seeded shuffle buffer, and packs the result
// into a flat token queue with an EOT separator after every document. The
// corpus may be one file or a directory of files (see corpusFiles): the
// document index runs globally across the sorted file list, a file
// boundary separates documents like a blank line, and at the end of the
// last file the stream seeks every handle back to the start (the stream
// is infinite; epochs are counted; no reopen, so epoch wrap allocates
// nothing). All per-document buffers come from the loader's arena pool,
// so a warmed stream refills without allocating.
type shardStream struct {
	rank, world int
	name        string // corpus path as configured, for errors
	files       []*os.File
	fileIdx     int // file the scanner is currently framing
	sc          *docScanner
	tok         *Tokenizer
	rng         *rand.Rand
	ints        *arena.Arena[int]

	shuffle [][]int // shuffle buffer of tokenized documents
	ring    []int   // packed token queue
	head    int     // consumed prefix of ring

	docIndex   int // position in the current epoch's GLOBAL document sequence
	epochs     int
	primed     bool
	encScratch []int // encodeInto append target, reused across documents
}

// newShardStream opens one rank's view of the corpus (a file, or a
// directory of files). Streams sharing a loader share its arena but
// nothing else — each holds private handles on every corpus file; two
// streams with equal (rank, world, seed) over the same corpus are
// bitwise-identical.
func newShardStream(path string, rank, world int, tok *Tokenizer, seed int64, chunkBytes, maxDocBytes int, ints *arena.Arena[int]) (*shardStream, error) {
	paths, err := corpusFiles(path)
	if err != nil {
		return nil, err
	}
	files := make([]*os.File, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			for _, open := range files {
				open.Close()
			}
			return nil, fmt.Errorf("data: opening corpus: %w", err)
		}
		files = append(files, f)
	}
	return &shardStream{
		rank:  rank,
		world: world,
		name:  path,
		files: files,
		sc:    newDocScanner(files[0], chunkBytes, maxDocBytes),
		tok:   tok,
		// Decorrelate the per-shard shuffle orders while keeping each a
		// pure function of (seed, rank).
		rng:  rand.New(rand.NewSource(seed*0x9E3779B9 + int64(rank))),
		ints: ints,
	}, nil
}

func (s *shardStream) close() error {
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// enterFile seeks file i back to its start and points the scanner at it.
func (s *shardStream) enterFile(i int) error {
	s.fileIdx = i
	if _, err := s.files[i].Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("data: rewinding corpus: %w", err)
	}
	s.sc.reset(s.files[i])
	return nil
}

// nextShardDoc returns this rank's next tokenized document (epoch-looping,
// never EOF). The returned buffer belongs to the stream's arena; the
// caller must Put it back once consumed.
func (s *shardStream) nextShardDoc() ([]int, error) {
	for rewinds := 0; ; {
		doc, err := s.sc.next()
		if err == io.EOF {
			// End of one file: move to the next; the global document index
			// keeps counting, so the shard assignment never notices the
			// file boundary.
			if s.fileIdx+1 < len(s.files) {
				if err := s.enterFile(s.fileIdx + 1); err != nil {
					return nil, err
				}
				continue
			}
			// End of the last file: one rewind per call is the normal
			// end-of-epoch case; a second means a full cycle over every
			// file found no document for this rank (empty corpus, or fewer
			// documents than ranks).
			rewinds++
			if rewinds >= 2 {
				return nil, fmt.Errorf("%w: no documents for rank %d of %d in %s",
					ErrCorpus, s.rank, s.world, s.name)
			}
			if err := s.enterFile(0); err != nil {
				return nil, err
			}
			s.docIndex = 0
			s.epochs++
			continue
		}
		if err != nil {
			return nil, err
		}
		d := s.docIndex
		s.docIndex++
		if shardOf(d, s.world) != s.rank {
			continue
		}
		s.encScratch = s.tok.encodeInto(s.encScratch[:0], doc)
		buf := s.ints.Get(len(s.encScratch) + 1)
		copy(buf, s.encScratch)
		buf[len(s.encScratch)] = EOT
		return buf, nil
	}
}

// fill tops the ring up to at least n unconsumed tokens, compacting the
// consumed prefix first and drawing documents through the shuffle buffer.
func (s *shardStream) fill(n, shuffleDocs int) error {
	if !s.primed {
		s.shuffle = make([][]int, 0, shuffleDocs)
		for len(s.shuffle) < shuffleDocs {
			d, err := s.nextShardDoc()
			if err != nil {
				return err
			}
			s.shuffle = append(s.shuffle, d)
		}
		s.primed = true
	}
	if s.head > 0 {
		s.ring = s.ring[:copy(s.ring, s.ring[s.head:])]
		s.head = 0
	}
	for len(s.ring) < n {
		i := s.rng.Intn(len(s.shuffle))
		doc := s.shuffle[i]
		repl, err := s.nextShardDoc()
		if err != nil {
			return err
		}
		s.shuffle[i] = repl
		s.ring = append(s.ring, doc...)
		s.ints.Put(doc)
	}
	return nil
}

// release returns every buffered token slice to the arena.
func (s *shardStream) release() {
	for _, d := range s.shuffle {
		s.ints.Put(d)
	}
	s.shuffle = nil
	s.ring = nil
	s.primed = false
}
