package data

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
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
	tok, err := trainBPE(sample, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(tok.merges) == 0 {
		t.Fatal("trained tokenizer learned no merges")
	}
	if tok.VocabSize() != 257+len(tok.merges) {
		t.Fatalf("VocabSize %d, want %d", tok.VocabSize(), 257+len(tok.merges))
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
	a, err := trainBPE(sample, 280)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainBPE(sample, 280)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.merges) != len(b.merges) {
		t.Fatalf("merge counts differ: %d vs %d", len(a.merges), len(b.merges))
	}
	for i := range a.merges {
		if a.merges[i] != b.merges[i] {
			t.Fatalf("merge %d differs: %v vs %v", i, a.merges[i], b.merges[i])
		}
	}
}

// The byte tokenizer is the identity mapping plus EOT headroom.
func TestByteTokenizer(t *testing.T) {
	tok := newByteTokenizer()
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
	tok, err := trainBPE(sample, 290)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vocab.json")
	if err := SaveTokenizerFile(tok, path); err != nil {
		t.Fatal(err)
	}
	back, err := loadTokenizerFile(path)
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
		if _, err := loadTokenizerJSON([]byte(blob)); !errors.Is(err, ErrTokenizerJSON) {
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
	tok, err := loadTokenizerJSON(blob)
	runtime.ReadMemStats(&m1)
	return tok, m1.TotalAlloc - m0.TotalAlloc, err
}

// A token may not grow past maxTokenBytes. The 283-byte, 26-merge doubling
// file would need a 64 MiB token (220 MB in all); it is rejected after a
// few KiB. trainBPE on a sample that doubles the same way stops at the cap,
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
	if _, err := loadTokenizerJSON(doublingVocab(10)); err != nil {
		t.Fatalf("10 doubling merges (a %d-byte token): %v", maxTokenBytes, err)
	}

	tok, err := trainBPE(bytes.Repeat([]byte("a"), 1<<13), 300)
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
	out, err := tok.saveJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := loadTokenizerJSON(out)
	if err != nil || !reflect.DeepEqual(back.vocab, tok.vocab) {
		t.Fatalf("trained vocab does not load back identically: %v", err)
	}
}

// Sub-floor vocab budgets are rejected; a floor budget is the byte
// tokenizer; tiny samples stop early instead of inventing merges.
func TestTrainBPEBudgets(t *testing.T) {
	if _, err := trainBPE([]byte("abc"), 100); !errors.Is(err, ErrVocab) {
		t.Fatalf("trainBPE(100): %v, want ErrVocab", err)
	}
	tok, err := trainBPE([]byte("ab"), 257)
	if err != nil || len(tok.merges) != 0 {
		t.Fatalf("floor budget: merges %d err %v, want 0 merges", len(tok.merges), err)
	}
	// "ab" has no repeated pair: a huge budget still learns nothing.
	tok, err = trainBPE([]byte("ab"), 1000)
	if err != nil || len(tok.merges) != 0 {
		t.Fatalf("no-repeat sample: merges %d err %v, want 0", len(tok.merges), err)
	}
}

// The committed example corpus and its vocab, which the goldens encode.
const (
	exampleCorpus = "../../examples/corpus/corpus.txt"
	exampleVocab  = "../../examples/corpus/vocab.json"
)

// corpusDigest frames path into documents with the loader's docScanner,
// encodes each with tok, and returns the SHA-256 of every document's ids
// (4-byte little-endian, each document followed by EOT) and the token
// count.
func corpusDigest(t *testing.T, tok *Tokenizer, path string) (string, int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	sc := newDocScanner(f, 0, 0)
	var ids []int
	var word [4]byte
	tokens := 0
	for {
		doc, err := sc.next()
		if err == io.EOF {
			return hex.EncodeToString(h.Sum(nil)), tokens
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = tok.encodeInto(ids[:0], doc)
		tokens += len(ids)
		for _, id := range append(ids, EOT) {
			binary.LittleEndian.PutUint32(word[:], uint32(id))
			h.Write(word[:])
		}
	}
}

// The encoder's output on the example corpus is pinned bit for bit: for
// tokenizers trained at open (the loader's "bpe" sample) at three vocab
// sizes and for the committed vocab.json, the digest of every document's
// ids must not move. The digests were computed by the rescan-per-merge
// encoder.
func TestEncodeCorpusGolden(t *testing.T) {
	sample, err := readSample(exampleCorpus, DefaultTrainBytes)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		vocab  int // 0: the committed vocab.json
		digest string
		tokens int
	}{
		{"bpe300", 300, "de8141ff7469c21f2850dcb0fb03cb15ef60b58829a924ceb998b078d9f40aa4", 4756},
		{"bpe512", 512, "26debf51e553022095eae21970d7a3bef7b0a692ca6a44c3b05a8a7f31ff888b", 2900},
		// The 7 KiB sample stops repeating pairs at 924 ids.
		{"bpe4096", 4096, "f55825c220af79c1b8b0f31be48e2f3128e59644dca11e43ea0c46e2f0ff0e6f", 1897},
		{"vocab.json", 0, "c36c8d4f9f2167ed530647fc6846c58d37266b2aea6a60ac3907fcb0bc8138ab", 2900},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tok *Tokenizer
			var err error
			if tc.vocab == 0 {
				tok, err = loadTokenizerFile(exampleVocab)
			} else {
				tok, err = trainBPE(sample, tc.vocab)
			}
			if err != nil {
				t.Fatal(err)
			}
			digest, tokens := corpusDigest(t, tok, exampleCorpus)
			if digest != tc.digest || tokens != tc.tokens {
				t.Errorf("vocab %d: %d tokens, digest %s; want %d tokens, digest %s",
					tok.VocabSize(), tokens, digest, tc.tokens, tc.digest)
			}
		})
	}
}

// encodeReference is the rescan-per-merge encoder: find the lowest merge
// index present anywhere in the sequence, rewrite all its occurrences left
// to right, and repeat. It costs O(merges applied × len) and is kept only
// as the oracle encodeInto must match id for id.
func encodeReference(t *Tokenizer, text []byte) []int {
	buf := make([]int, len(text))
	for i, b := range text {
		buf[i] = int(b)
	}
	for len(t.merges) > 0 {
		best := -1
		for i := 0; i+1 < len(buf); i++ {
			if m, ok := t.rank[pairKey(buf[i], buf[i+1])]; ok && (best == -1 || m < best) {
				best = m
			}
		}
		if best == -1 {
			break
		}
		m := t.merges[best]
		buf = mergePair(buf, m.L, m.R, byteVocab+best)
	}
	return buf
}

// encodeInto matches encodeReference id for id on seeded random texts —
// windows of the example corpus with a few bytes replaced, and runs over
// tiny alphabets where one merge overlaps itself — under the corpus-trained
// vocabs of TestEncodeCorpusGolden and the self-merge chain. Each encode
// appends behind a sentinel, which must survive.
func TestEncodeMatchesReference(t *testing.T) {
	sample, err := readSample(exampleCorpus, DefaultTrainBytes)
	if err != nil {
		t.Fatal(err)
	}
	var toks []*Tokenizer
	for _, vocab := range []int{300, 512, 4096} {
		tok, err := trainBPE(sample, vocab)
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	doubling, err := loadTokenizerJSON(doublingVocab(10))
	if err != nil {
		t.Fatal(err)
	}
	toks = append(toks, doubling)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		n := rng.Intn(160)
		var text []byte
		if i%2 == 0 {
			off := rng.Intn(len(sample) - n)
			text = append(text, sample[off:off+n]...)
			for j := rng.Intn(4); j > 0 && n > 0; j-- {
				text[rng.Intn(n)] = byte(rng.Intn(256))
			}
		} else {
			alphabet := []string{"a", "ab", "ae ", "the "}[rng.Intn(4)]
			for range n {
				text = append(text, alphabet[rng.Intn(len(alphabet))])
			}
		}
		for _, tok := range toks {
			got := tok.encodeInto([]int{-1}, text)
			if want := encodeReference(tok, text); got[0] != -1 || !equalIDs(got[1:], want) {
				t.Fatalf("vocab %d, text %q: encodeInto %v, reference %v", tok.VocabSize(), text, got, want)
			}
		}
	}
}

// encodeInto appends into the destination without clobbering its prefix
// and reuses scratch across calls.
func TestEncodeIntoAppends(t *testing.T) {
	tok := newByteTokenizer()
	dst := []int{42}
	dst = tok.encodeInto(dst, []byte("xy"))
	if len(dst) != 3 || dst[0] != 42 || dst[1] != 'x' || dst[2] != 'y' {
		t.Fatalf("encodeInto = %v", dst)
	}
	if got := tok.encodeInto(nil, nil); got != nil {
		t.Fatalf("encodeInto(nil, empty) = %v, want nil", got)
	}
}

// FuzzBPERoundTrip: for any input bytes, Encode then Decode is the
// identity — the byte-level BPE guarantee — for both a trained tokenizer
// and the byte tokenizer. Run as a short smoke in `make check`
// (fuzz-smoke) and at length with `go test -fuzz=FuzzBPERoundTrip`.
func FuzzBPERoundTrip(f *testing.F) {
	trained, err := trainBPE(bytes.Repeat([]byte("the zero redundancy optimizer shards optimizer state. "), 40), 320)
	if err != nil {
		f.Fatal(err)
	}
	bt := newByteTokenizer()
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

// fuzzVocab splits a fuzz input into a vocab and a text. in[0] mod 16 is
// the merge count, and each merge takes the next two bytes: a byte below
// 128 is that raw byte, one at or above it an earlier merge's id, so
// chains and self-merges come up often. It returns the tokenizer
// loadTokenizerJSON builds from those pairs (nil when it rejects them) and
// the rest of the input.
func fuzzVocab(in []byte) (*Tokenizer, []byte) {
	if len(in) == 0 {
		return nil, in
	}
	spec := tokenizerJSON{Kind: "bpe"}
	k, rest := int(in[0]%16), in[1:]
	for i := 0; i < k && len(rest) >= 2; i++ {
		var pair [2]int
		for j, x := range rest[:2] {
			pair[j] = int(x)
			if x >= 128 && i > 0 {
				pair[j] = byteVocab + int(x-128)%i
			}
		}
		spec.Merges = append(spec.Merges, pair)
		rest = rest[2:]
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	tok, _ := loadTokenizerJSON(blob) // nil when rejected
	return tok, rest
}

// FuzzEncodeMatchesReference: for any input bytes, encodeInto equals
// encodeReference under a trained 320-id vocab, under the self-merge chain
// doublingVocab(10) (tie order on runs like "aaaa"), and under a vocab
// loaded from merge pairs taken out of the input itself (fuzzVocab). Run as
// a short smoke in `make check` (fuzz-smoke).
func FuzzEncodeMatchesReference(f *testing.F) {
	trained, err := trainBPE(bytes.Repeat([]byte("the zero redundancy optimizer shards optimizer state. "), 40), 320)
	if err != nil {
		f.Fatal(err)
	}
	doubling, err := loadTokenizerJSON(doublingVocab(10))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("the optimizer shards state"))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte("a"), 37))
	f.Add([]byte("\x03aa\x80\x80\x81aaaaaaaaaaa"))
	f.Add([]byte("\x02ab\x80bababbabab"))
	f.Fuzz(func(t *testing.T, in []byte) {
		loaded, text := fuzzVocab(in)
		for _, c := range []struct {
			name string
			tok  *Tokenizer
			text []byte
		}{{"trained", trained, in}, {"doubling", doubling, in}, {"loaded", loaded, text}} {
			if c.tok == nil {
				continue
			}
			if got, want := c.tok.Encode(c.text), encodeReference(c.tok, c.text); !equalIDs(got, want) {
				t.Fatalf("%s: encodeInto(%q) = %v, reference %v", c.name, c.text, got, want)
			}
		}
	})
}

// FuzzLoadTokenizerJSON: any input is rejected with ErrTokenizerJSON, or
// loads into a tokenizer whose saveJSON loads back to the identical merges
// and vocabulary. It never panics, and what a load allocates stays within a
// fixed multiple of the input's length: each merge costs at most a
// maxTokenBytes token plus bookkeeping, and takes at least 6 input bytes.
func FuzzLoadTokenizerJSON(f *testing.F) {
	trained, err := trainBPE(bytes.Repeat([]byte("zero redundancy optimizer. "), 60), 290)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := trained.saveJSON()
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
		out, err := tok.saveJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := loadTokenizerJSON(out)
		if err != nil {
			t.Fatalf("saved vocab does not load: %v", err)
		}
		if !reflect.DeepEqual(back.merges, tok.merges) || !reflect.DeepEqual(back.vocab, tok.vocab) {
			t.Fatal("saved vocab loads back different")
		}
	})
}
