package data

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// A trained tokenizer must compress its own training sample, apply merges
// deterministically, and round-trip exactly.
func TestTrainBPECompressesAndRoundTrips(t *testing.T) {
	sample := bytes.Repeat([]byte("the cat sat on the mat. the dog ate the log.\n"), 50)
	tok, err := TrainBPE(sample, 300)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Merges() == 0 {
		t.Fatal("trained tokenizer learned no merges")
	}
	if tok.VocabSize() != 257+tok.Merges() {
		t.Fatalf("VocabSize %d, want %d", tok.VocabSize(), 257+tok.Merges())
	}
	ids := tok.Encode(sample)
	if len(ids) >= len(sample) {
		t.Fatalf("BPE did not compress: %d tokens for %d bytes", len(ids), len(sample))
	}
	for _, id := range ids {
		if id < 0 || id >= tok.VocabSize() || id == EOT {
			t.Fatalf("Encode emitted invalid id %d", id)
		}
	}
	back, err := tok.Decode(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, sample) {
		t.Fatal("Decode(Encode(sample)) != sample")
	}
}

// Training is deterministic: same sample, same merges — twice.
func TestTrainBPEDeterministic(t *testing.T) {
	sample := bytes.Repeat([]byte("abcabd abcabd xyz xyz "), 40)
	a, err := TrainBPE(sample, 280)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainBPE(sample, 280)
	if err != nil {
		t.Fatal(err)
	}
	if a.Merges() != b.Merges() {
		t.Fatalf("merge counts differ: %d vs %d", a.Merges(), b.Merges())
	}
	for i := range a.merges {
		if a.merges[i] != b.merges[i] {
			t.Fatalf("merge %d differs: %v vs %v", i, a.merges[i], b.merges[i])
		}
	}
}

// The byte tokenizer is the identity mapping plus EOT headroom.
func TestByteTokenizer(t *testing.T) {
	tok := NewByteTokenizer()
	if tok.VocabSize() != 257 {
		t.Fatalf("byte vocab %d, want 257", tok.VocabSize())
	}
	in := []byte("hello, \x00\xff world")
	ids := tok.Encode(in)
	if len(ids) != len(in) {
		t.Fatalf("byte encode length %d, want %d", len(ids), len(in))
	}
	back, err := tok.Decode(ids)
	if err != nil || !bytes.Equal(back, in) {
		t.Fatalf("byte round trip failed: %q err %v", back, err)
	}
	// EOT decodes to nothing; out-of-range ids are ErrToken.
	if out, err := tok.Decode([]int{EOT, 'a'}); err != nil || string(out) != "a" {
		t.Fatalf("EOT decode: %q, %v", out, err)
	}
	if _, err := tok.Decode([]int{300}); !errors.Is(err, ErrToken) {
		t.Fatalf("decode of unknown id: %v, want ErrToken", err)
	}
}

// Vocab JSON save/load reproduces the exact tokenizer; corrupt files are
// structured errors.
func TestTokenizerJSONRoundTrip(t *testing.T) {
	sample := bytes.Repeat([]byte("zero redundancy optimizer. "), 60)
	tok, err := TrainBPE(sample, 290)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vocab.json")
	if err := SaveTokenizerFile(tok, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTokenizerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.VocabSize() != tok.VocabSize() {
		t.Fatalf("loaded vocab %d, want %d", back.VocabSize(), tok.VocabSize())
	}
	in := []byte("an optimizer with zero redundancy")
	a, b := tok.Encode(in), back.Encode(in)
	if len(a) != len(b) {
		t.Fatalf("encode lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token %d differs: %d vs %d", i, a[i], b[i])
		}
	}

	for name, blob := range map[string]string{
		"not json":        `{{{`,
		"wrong kind":      `{"kind":"wordpiece","merges":[]}`,
		"forward ref":     `{"kind":"bpe","merges":[[300,301]]}`,
		"eot in merge":    `{"kind":"bpe","merges":[[256,97]]}`,
		"duplicate merge": `{"kind":"bpe","merges":[[97,98],[97,98]]}`,
		"negative id":     `{"kind":"bpe","merges":[[-1,97]]}`,
	} {
		if _, err := LoadTokenizerJSON([]byte(blob)); !errors.Is(err, ErrTokenizerJSON) {
			t.Errorf("%s: error %v, want ErrTokenizerJSON", name, err)
		}
	}
}

// doublingVocab is a vocab file whose n merges each join the previous
// token with itself: [[97,97],[257,257],[258,258],…]. Token i is 2^(i+1)
// bytes long.
func doublingVocab(n int) []byte {
	merges := []string{"[97,97]"}
	for i := 1; i < n; i++ {
		merges = append(merges, fmt.Sprintf("[%d,%d]", 256+i, 256+i))
	}
	return []byte(`{"kind":"bpe","merges":[` + strings.Join(merges, ",") + `]}`)
}

// loadAllocs loads blob and returns the bytes the load allocated.
func loadAllocs(blob []byte) (*Tokenizer, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tok, err := LoadTokenizerJSON(blob)
	runtime.ReadMemStats(&m1)
	return tok, m1.TotalAlloc - m0.TotalAlloc, err
}

// A token may not grow past maxTokenBytes. The 283-byte, 26-merge doubling
// file would need a 64 MiB token (220 MB in all); it is rejected after a
// few KiB. TrainBPE on a sample that doubles the same way stops at the cap,
// so what it trains still saves and loads.
func TestTokenLengthCap(t *testing.T) {
	blob := doublingVocab(26)
	if len(blob) != 283 {
		t.Fatalf("doubling file is %d bytes, want 283", len(blob))
	}
	_, alloc, err := loadAllocs(blob)
	if !errors.Is(err, ErrTokenizerJSON) {
		t.Fatalf("26 doubling merges: %v, want ErrTokenizerJSON", err)
	}
	if alloc > 1<<20 {
		t.Errorf("rejecting 26 doubling merges allocated %d bytes", alloc)
	}
	if _, err := LoadTokenizerJSON(doublingVocab(10)); err != nil {
		t.Fatalf("10 doubling merges (a %d-byte token): %v", maxTokenBytes, err)
	}

	tok, err := TrainBPE(bytes.Repeat([]byte("a"), 1<<13), 300)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, v := range tok.vocab {
		longest = max(longest, len(v))
	}
	if longest != maxTokenBytes {
		t.Errorf("longest trained token %d bytes, want the %d-byte cap", longest, maxTokenBytes)
	}
	out, err := tok.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadTokenizerJSON(out)
	if err != nil || !reflect.DeepEqual(back.vocab, tok.vocab) {
		t.Fatalf("trained vocab does not load back identically: %v", err)
	}
}

// Sub-floor vocab budgets are rejected; a floor budget is the byte
// tokenizer; tiny samples stop early instead of inventing merges.
func TestTrainBPEBudgets(t *testing.T) {
	if _, err := TrainBPE([]byte("abc"), 100); !errors.Is(err, ErrVocab) {
		t.Fatalf("TrainBPE(100): %v, want ErrVocab", err)
	}
	tok, err := TrainBPE([]byte("ab"), 257)
	if err != nil || tok.Merges() != 0 {
		t.Fatalf("floor budget: merges %d err %v, want 0 merges", tok.Merges(), err)
	}
	// "ab" has no repeated pair: a huge budget still learns nothing.
	tok, err = TrainBPE([]byte("ab"), 1000)
	if err != nil || tok.Merges() != 0 {
		t.Fatalf("no-repeat sample: merges %d err %v, want 0", tok.Merges(), err)
	}
}

// EncodeInto appends into the destination without clobbering its prefix
// and reuses scratch across calls.
func TestEncodeIntoAppends(t *testing.T) {
	tok := NewByteTokenizer()
	dst := []int{42}
	dst = tok.EncodeInto(dst, []byte("xy"))
	if len(dst) != 3 || dst[0] != 42 || dst[1] != 'x' || dst[2] != 'y' {
		t.Fatalf("EncodeInto = %v", dst)
	}
	if got := tok.EncodeInto(nil, nil); got != nil {
		t.Fatalf("EncodeInto(nil, empty) = %v, want nil", got)
	}
}

// FuzzBPERoundTrip: for any input bytes, Encode then Decode is the
// identity — the byte-level BPE guarantee — for both a trained tokenizer
// and the byte tokenizer. Run as a short smoke in `make check`
// (fuzz-smoke) and at length with `go test -fuzz=FuzzBPERoundTrip`.
func FuzzBPERoundTrip(f *testing.F) {
	trained, err := TrainBPE(bytes.Repeat([]byte("the zero redundancy optimizer shards optimizer state. "), 40), 320)
	if err != nil {
		f.Fatal(err)
	}
	bt := NewByteTokenizer()
	f.Add([]byte("the optimizer"))
	f.Add([]byte(""))
	f.Add([]byte{0, 255, 10, 13, 10})
	f.Add(bytes.Repeat([]byte("ab"), 100))
	f.Fuzz(func(t *testing.T, in []byte) {
		for name, tok := range map[string]*Tokenizer{"trained": trained, "byte": bt} {
			ids := tok.Encode(in)
			out, err := tok.Decode(ids)
			if err != nil {
				t.Fatalf("%s: decode error %v", name, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s: round trip changed %q -> %q", name, in, out)
			}
		}
	})
}

// FuzzLoadTokenizerJSON: any input is rejected with ErrTokenizerJSON, or
// loads into a tokenizer whose SaveJSON loads back to the identical merges
// and vocabulary. It never panics, and what a load allocates stays within a
// fixed multiple of the input's length: each merge costs at most a
// maxTokenBytes token plus bookkeeping, and takes at least 6 input bytes.
func FuzzLoadTokenizerJSON(f *testing.F) {
	trained, err := TrainBPE(bytes.Repeat([]byte("zero redundancy optimizer. "), 60), 290)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := trained.SaveJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(doublingVocab(26))
	f.Add(doublingVocab(10))
	f.Add([]byte(`{"kind":"bpe","merges":[]}`))
	f.Add([]byte(`{"kind":"bpe","merges":[[97,98],[97,98]]}`))
	f.Add([]byte(`{"kind":"bpe","merges":[[256,97]]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		tok, alloc, err := loadAllocs(blob)
		if budget := 256*uint64(len(blob)) + 64<<10; alloc > budget {
			t.Fatalf("load of %d bytes allocated %d bytes, budget %d", len(blob), alloc, budget)
		}
		if err != nil {
			if !errors.Is(err, ErrTokenizerJSON) {
				t.Fatalf("error %v is not ErrTokenizerJSON", err)
			}
			return
		}
		out, err := tok.SaveJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadTokenizerJSON(out)
		if err != nil {
			t.Fatalf("saved vocab does not load: %v", err)
		}
		if !reflect.DeepEqual(back.merges, tok.merges) || !reflect.DeepEqual(back.vocab, tok.vocab) {
			t.Fatal("saved vocab loads back different")
		}
	})
}
