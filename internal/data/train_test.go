package data

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TrainFromCorpus produces a tokenizer that round-trips its own training
// sample and respects the byte budget.
func TestTrainFromCorpus(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	text := strings.Repeat("the quick brown fox jumps over the lazy dog\n\n", 40)
	if err := os.WriteFile(corpus, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	tok, stats, err := TrainFromCorpus(corpus, 300, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tok.VocabSize() != 300 {
		t.Errorf("VocabSize = %d, want 300", tok.VocabSize())
	}
	if stats.Docs != 40 || stats.SampleBytes == 0 || stats.SampleTokens == 0 {
		t.Errorf("stats = %+v, want 40 docs with a non-empty sample", stats)
	}

	// Encode/Decode round trip on a fresh document.
	doc := []byte("the lazy fox")
	got, err := tok.Decode(tok.Encode(doc))
	if err != nil || !bytes.Equal(got, doc) {
		t.Errorf("round trip = (%q, %v), want %q", got, err, doc)
	}

	// The trained vocab must actually compress (merges beyond raw bytes).
	if stats.SampleTokens >= stats.SampleBytes {
		t.Errorf("no compression: %d tokens for %d bytes", stats.SampleTokens, stats.SampleBytes)
	}
}

// The byte budget caps the sample even when the corpus is larger.
func TestTrainFromCorpusBudget(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	text := strings.Repeat("some words to merge again and again\n\n", 200)
	if err := os.WriteFile(corpus, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	const budget = 512
	_, stats, err := TrainFromCorpus(corpus, 280, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SampleBytes > budget {
		t.Errorf("SampleBytes = %d above the %d budget", stats.SampleBytes, budget)
	}
}

// zerotok's committed-vocab flow: train, save, and load back through the
// loader-facing JSON reader — what a config's tokenizer path consumes.
func TestTrainFromCorpusSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	if err := os.WriteFile(corpus, []byte(strings.Repeat("alpha beta gamma delta\n\n", 30)), 0o644); err != nil {
		t.Fatal(err)
	}
	tok, _, err := TrainFromCorpus(corpus, 290, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	vocabPath := filepath.Join(dir, "vocab.json")
	if err := SaveTokenizerFile(tok, vocabPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadTokenizerFile(vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("beta gamma alpha")
	if got, want := loaded.Encode(doc), tok.Encode(doc); !equalIDs(got, want) {
		t.Errorf("loaded vocab encodes %v, trained vocab %v", got, want)
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Missing and empty corpora fail with wrapped, inspectable errors.
func TestTrainFromCorpusErrors(t *testing.T) {
	if _, _, err := TrainFromCorpus(filepath.Join(t.TempDir(), "nope.txt"), 300, 0, 0); err == nil {
		t.Error("missing corpus trained without error")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := TrainFromCorpus(empty, 300, 0, 0); !errors.Is(err, ErrCorpus) {
		t.Errorf("empty corpus: err = %v, want ErrCorpus", err)
	}
}
