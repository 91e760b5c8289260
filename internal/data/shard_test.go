package data

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arena"
)

// Property: for every world size, shardOf partitions any document range —
// per-rank sets are pairwise disjoint, their union covers the corpus
// exactly, and the assignment is a pure function (stable across calls and
// across world sizes in the sense that changing N never drops or
// duplicates a document).
func TestShardAssignmentPartition(t *testing.T) {
	f := func(docsRaw uint8, worldRaw uint8) bool {
		docs := int(docsRaw)%200 + 1
		world := int(worldRaw)%12 + 1
		seen := make([]int, docs) // how many ranks claimed each doc
		for r := 0; r < world; r++ {
			for d := 0; d < docs; d++ {
				if shardOf(d, world) == r {
					seen[d]++
				}
			}
		}
		for d, n := range seen {
			if n != 1 {
				t.Logf("doc %d claimed by %d ranks (world %d)", d, n, world)
				return false
			}
		}
		// Stability: the assignment is deterministic.
		for d := 0; d < docs; d++ {
			if shardOf(d, world) != shardOf(d, world) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// writeCorpus materializes numbered blank-line-separated documents and
// returns the path plus the document texts.
func writeCorpus(t testing.TB, docs int) (string, []string) {
	t.Helper()
	var sb strings.Builder
	texts := make([]string, docs)
	for d := 0; d < docs; d++ {
		texts[d] = fmt.Sprintf("document %03d body text", d)
		sb.WriteString(texts[d])
		sb.WriteString("\n\n")
	}
	path := filepath.Join(t.TempDir(), "corpus.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, texts
}

// The stream level honors the assignment: rank r's stream yields exactly
// the documents shardOf maps to r, in epoch order, for every world size.
func TestShardStreamsPartitionTheCorpus(t *testing.T) {
	const docs = 23
	path, texts := writeCorpus(t, docs)
	tok := newByteTokenizer()
	for world := 1; world <= 6; world++ {
		claimed := make([]int, docs)
		for r := 0; r < world; r++ {
			ints := arena.New[int]()
			s, err := newShardStream(path, r, world, tok.clone(), 1, 16, 0, ints)
			if err != nil {
				t.Fatal(err)
			}
			// One full epoch of this rank's documents.
			perRank := docs / world
			if r < docs%world {
				perRank++
			}
			for i := 0; i < perRank; i++ {
				buf, err := s.nextShardDoc()
				if err != nil {
					t.Fatal(err)
				}
				if buf[len(buf)-1] != EOT {
					t.Fatalf("world %d rank %d: doc missing EOT terminator", world, r)
				}
				body, err := tok.Decode(buf[:len(buf)-1])
				if err != nil {
					t.Fatal(err)
				}
				found := -1
				for d, text := range texts {
					if string(body) == text {
						found = d
						break
					}
				}
				if found == -1 {
					t.Fatalf("world %d rank %d: unknown document %q", world, r, body)
				}
				if shardOf(found, world) != r {
					t.Fatalf("world %d: doc %d surfaced on rank %d, want %d",
						world, found, r, shardOf(found, world))
				}
				claimed[found]++
			}
			s.close()
		}
		for d, n := range claimed {
			if n != 1 {
				t.Fatalf("world %d: doc %d claimed %d times, want exactly once", world, d, n)
			}
		}
	}
}

// A rank whose shard is empty (fewer documents than ranks) fails with
// ErrCorpus instead of spinning on the file forever.
func TestShardStreamStarvedRank(t *testing.T) {
	path, _ := writeCorpus(t, 2)
	s, err := newShardStream(path, 3, 4, newByteTokenizer(), 1, 0, 0, arena.New[int]())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if _, err := s.nextShardDoc(); !errors.Is(err, ErrCorpus) {
		t.Fatalf("starved rank error = %v, want ErrCorpus", err)
	}
}

// Epoch looping: draining past the end of the corpus rewinds and replays
// the same shard in the same order.
func TestShardStreamEpochLoop(t *testing.T) {
	path, _ := writeCorpus(t, 5)
	tok := newByteTokenizer()
	s, err := newShardStream(path, 1, 2, tok, 1, 32, 0, arena.New[int]())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var first []string
	for i := 0; i < 2; i++ { // docs 1, 3
		buf, err := s.nextShardDoc()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := tok.Decode(buf[:len(buf)-1])
		first = append(first, string(body))
	}
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 2; i++ {
			buf, err := s.nextShardDoc()
			if err != nil {
				t.Fatal(err)
			}
			body, _ := tok.Decode(buf[:len(buf)-1])
			if string(body) != first[i] {
				t.Fatalf("epoch %d doc %d = %q, want %q", epoch+1, i, body, first[i])
			}
		}
	}
	if s.epochs < 3 {
		t.Fatalf("epochs = %d, want ≥ 3", s.epochs)
	}
}

// writeCorpusDir splits the same numbered documents across `files` sorted
// files in a directory, cycling blocks so every file holds a contiguous
// run of the global document sequence. Returns the directory and texts.
func writeCorpusDir(t testing.TB, docs, files int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	texts := make([]string, docs)
	per := (docs + files - 1) / files
	for fi := 0; fi < files; fi++ {
		var sb strings.Builder
		for d := fi * per; d < (fi+1)*per && d < docs; d++ {
			texts[d] = fmt.Sprintf("document %03d body text", d)
			sb.WriteString(texts[d])
			sb.WriteString("\n\n")
		}
		name := filepath.Join(dir, fmt.Sprintf("shard-%02d.txt", fi))
		if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, texts
}

// corpusFiles resolves a file to itself and a directory to its sorted
// regular files, skipping dotfiles and subdirectories, and rejects an
// empty directory with ErrCorpus.
func TestCorpusFilesResolution(t *testing.T) {
	path, _ := writeCorpus(t, 3)
	got, err := corpusFiles(path)
	if err != nil || len(got) != 1 || got[0] != path {
		t.Fatalf("file corpus resolved to %v (%v), want [%s]", got, err, path)
	}

	dir := t.TempDir()
	for _, name := range []string{"b.txt", "a.txt", "c.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ".hidden"), []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	got, err = corpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt"), filepath.Join(dir, "c.txt")}
	if len(got) != len(want) {
		t.Fatalf("directory resolved to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("directory resolved to %v, want %v (sorted, no dotfiles/subdirs)", got, want)
		}
	}

	if _, err := corpusFiles(t.TempDir()); !errors.Is(err, ErrCorpus) {
		t.Fatalf("empty directory error = %v, want ErrCorpus", err)
	}
	if _, err := corpusFiles(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing path: want error")
	}
}

// The multi-file corpus is exactly the concatenation of its sorted files:
// for every world size, rank r's document sequence over the directory is
// identical to its sequence over the single concatenated file — the
// global document index never notices the file boundaries. Runs past the
// epoch wrap so the seek-everything restart is covered too.
func TestMultiFileStreamsMatchConcatenated(t *testing.T) {
	const docs = 23
	single, _ := writeCorpus(t, docs)
	dir, _ := writeCorpusDir(t, docs, 4)
	tok := newByteTokenizer()
	for world := 1; world <= 5; world++ {
		for r := 0; r < world; r++ {
			a, err := newShardStream(single, r, world, tok.clone(), 1, 16, 0, arena.New[int]())
			if err != nil {
				t.Fatal(err)
			}
			b, err := newShardStream(dir, r, world, tok.clone(), 1, 16, 0, arena.New[int]())
			if err != nil {
				t.Fatal(err)
			}
			// Two full epochs of this rank's documents plus change.
			draws := 2*(docs/world+1) + 3
			for i := 0; i < draws; i++ {
				da, err := a.nextShardDoc()
				if err != nil {
					t.Fatal(err)
				}
				db, err := b.nextShardDoc()
				if err != nil {
					t.Fatal(err)
				}
				if len(da) != len(db) {
					t.Fatalf("world %d rank %d draw %d: doc lengths %d vs %d", world, r, i, len(da), len(db))
				}
				for j := range da {
					if da[j] != db[j] {
						t.Fatalf("world %d rank %d draw %d token %d: %d vs %d", world, r, i, j, da[j], db[j])
					}
				}
			}
			if a.epochs != b.epochs {
				t.Fatalf("world %d rank %d: epochs %d vs %d", world, r, a.epochs, b.epochs)
			}
			a.close()
			b.close()
		}
	}
}

// Property: the file split of a corpus is invisible to sharding — for any
// document count, file count and world size, every document surfaces on
// exactly the rank shardOf assigns it when streamed from a directory.
func TestMultiFileShardAssignmentProperty(t *testing.T) {
	tok := newByteTokenizer()
	f := func(docsRaw, filesRaw, worldRaw uint8) bool {
		docs := int(docsRaw)%20 + 1
		files := int(filesRaw)%5 + 1
		world := int(worldRaw)%docs + 1 // world ≤ docs: no starved ranks
		dir, texts := writeCorpusDir(t, docs, files)
		claimed := make([]int, docs)
		for r := 0; r < world; r++ {
			s, err := newShardStream(dir, r, world, tok.clone(), 1, 16, 0, arena.New[int]())
			if err != nil {
				t.Log(err)
				return false
			}
			perRank := docs / world
			if r < docs%world {
				perRank++
			}
			for i := 0; i < perRank; i++ {
				buf, err := s.nextShardDoc()
				if err != nil {
					t.Log(err)
					return false
				}
				body, err := tok.Decode(buf[:len(buf)-1])
				if err != nil {
					t.Log(err)
					return false
				}
				found := -1
				for d, text := range texts {
					if string(body) == text {
						found = d
						break
					}
				}
				if found == -1 || shardOf(found, world) != r {
					t.Logf("docs %d files %d world %d: doc %d on rank %d", docs, files, world, found, r)
					return false
				}
				claimed[found]++
			}
			s.close()
		}
		for _, n := range claimed {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: shardOf balances every world — rank loads differ by at most
// one document, and the heavier ranks are exactly the first docs%world.
func TestShardAssignmentBalance(t *testing.T) {
	f := func(docsRaw, worldRaw uint8) bool {
		docs := int(docsRaw)%300 + 1
		world := int(worldRaw)%16 + 1
		load := make([]int, world)
		for d := 0; d < docs; d++ {
			load[shardOf(d, world)]++
		}
		for r, n := range load {
			want := docs / world
			if r < docs%world {
				want++
			}
			if n != want {
				t.Logf("docs %d world %d rank %d: load %d, want %d", docs, world, r, n, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Epoch looping over a directory replays the same shard in the same
// order, and a rank with no documents anywhere in the file set fails with
// ErrCorpus after one full cycle instead of spinning.
func TestMultiFileEpochLoopAndStarvation(t *testing.T) {
	dir, _ := writeCorpusDir(t, 5, 3)
	tok := newByteTokenizer()
	s, err := newShardStream(dir, 1, 2, tok, 1, 32, 0, arena.New[int]())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var first []string
	for i := 0; i < 2; i++ { // docs 1, 3
		buf, err := s.nextShardDoc()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := tok.Decode(buf[:len(buf)-1])
		first = append(first, string(body))
	}
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 2; i++ {
			buf, err := s.nextShardDoc()
			if err != nil {
				t.Fatal(err)
			}
			body, _ := tok.Decode(buf[:len(buf)-1])
			if string(body) != first[i] {
				t.Fatalf("epoch %d doc %d = %q, want %q", epoch+1, i, body, first[i])
			}
		}
	}
	if s.epochs < 3 {
		t.Fatalf("epochs = %d, want ≥ 3", s.epochs)
	}

	starved, err := newShardStream(dir, 5, 6, newByteTokenizer(), 1, 0, 0, arena.New[int]())
	if err != nil {
		t.Fatal(err)
	}
	defer starved.close()
	if _, err := starved.nextShardDoc(); !errors.Is(err, ErrCorpus) {
		t.Fatalf("starved rank over directory: error = %v, want ErrCorpus", err)
	}
}
