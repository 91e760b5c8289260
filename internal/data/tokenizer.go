// Package data is the real-corpus streaming pipeline of the reproduction:
// a trainable byte-level BPE tokenizer, a sharded corpus reader that never
// slurps the file, a seeded shuffle buffer, and a sequence packer emitting
// fixed-length micro-batches behind the same TrainBatch contract the
// synthetic path uses (internal/engine.Batcher).
//
// The design follows the corpus → tokenize → shuffle → pack → micro-batch
// shape of GPT-style data loaders. Determinism is a hard requirement
// throughout — the same (file, config, seed) triple yields the same batch
// stream on every rank of any world, which is what keeps simulated data
// parallelism bitwise-reproducible:
//
//   - BPE merges are selected by (count desc, pair asc) — no map-iteration
//     order leaks into the vocabulary.
//   - Documents are assigned to ranks by a pure function of (document
//     index, world size); see shardOf.
//   - Shuffling is a bounded, seeded reservoir per shard stream.
//
// Memory stays bounded regardless of corpus size: the reader works in
// fixed-size chunks, documents are capped at MaxDocBytes, and the shuffle
// buffer holds a fixed number of tokenized documents. Steady-state batch
// production draws every token buffer from an internal/arena pool and
// performs no heap allocation.
//
// Surface: Open builds a Loader (NextBatch, Tokenizer, Tokens, Epochs,
// VocabSize, Close) from a Config; TrainFromCorpus and SaveTokenizerFile
// train and store a vocab; Tokenizer encodes and decodes. Imported by
// internal/engine (OpenData) and cmd/zerotok.
package data

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// EOT is the end-of-text token id, emitted between documents by the
// packer. It sits immediately after the 256 byte tokens, so BPE merge ids
// start at 257 and a tokenizer's id space is stable across vocab sizes.
const EOT = 256

// byteVocab is the number of reserved ids below the first merge: 256 raw
// bytes plus EOT.
const byteVocab = 257

// Sentinel errors for the distinct tokenizer failure classes.
var (
	// ErrVocab marks an unusable vocab size (below the byte+EOT floor).
	ErrVocab = errors.New("data: vocab size below byte floor")
	// ErrTokenizerJSON marks a malformed or inconsistent vocab file.
	ErrTokenizerJSON = errors.New("data: invalid tokenizer JSON")
	// ErrToken marks a token id outside the tokenizer's vocabulary.
	ErrToken = errors.New("data: token id out of range")
)

// merge is one learned BPE rule: the adjacent pair (L,R) rewrites to id
// 257+index. Earlier merges have priority during encoding.
type merge struct {
	L, R int
}

// Tokenizer is a byte-level BPE tokenizer. Ids 0-255 are raw bytes, 256 is
// EOT, and 257+i is the product of the i-th merge. A Tokenizer with no
// merges is the plain byte tokenizer. Encode/Decode round-trip any byte
// sequence exactly (byte-level BPE has no unknown-token case).
//
// encodeInto reuses internal scratch, so a Tokenizer must not be shared
// across goroutines; each Loader (and each rank) owns its own.
type Tokenizer struct {
	merges []merge
	rank   map[uint64]int // pair key → merge index (encode priority)
	vocab  [][]byte       // id → bytes; vocab[EOT] is empty
	enc    encodeScratch
}

// encodeScratch is encodeInto's working set, grown to the longest text
// seen and reused: the symbols as a doubly linked list over their original
// byte positions, and a min-heap of candidate merges.
type encodeScratch struct {
	sym        []int32  // id at each position; dead once merged into its left neighbour
	prev, next []int32  // neighbouring live positions; -1 and len(text) past the ends
	heap       []uint64 // candidates: merge index<<32 | left position
}

// maxTokenBytes caps the byte length of one token. Each merge concatenates
// two earlier tokens, so a merge list can double the longest token at every
// step: without a cap, a 283-byte vocab file with 26 chained merges makes a
// 64 MiB token. trainBPE never learns a merge past the cap, so every vocab
// it trains loads, and loadTokenizerJSON rejects one that crosses it, which
// keeps a loaded vocab within maxTokenBytes per merge. Natural text is far
// below it: the tokens trainBPE learns from examples/corpus at a 4096 vocab
// are at most 30 bytes.
const maxTokenBytes = 1 << 10

// pairKey packs an adjacent id pair into one map key.
func pairKey(l, r int) uint64 { return uint64(l)<<32 | uint64(uint32(r)) }

// newByteTokenizer returns the merge-free byte tokenizer (vocab 257: every
// byte plus EOT). It needs no training and handles any input.
func newByteTokenizer() *Tokenizer {
	t := &Tokenizer{rank: map[uint64]int{}, vocab: make([][]byte, byteVocab)}
	for b := 0; b < 256; b++ {
		t.vocab[b] = []byte{byte(b)}
	}
	return t
}

// addMerge appends the rule (l,r) → next id and its token's bytes. Callers
// have checked that l and r are defined ids other than EOT.
func (t *Tokenizer) addMerge(l, r int) error {
	key := pairKey(l, r)
	if _, dup := t.rank[key]; dup {
		return fmt.Errorf("duplicate merge (%d,%d)", l, r)
	}
	if n := len(t.vocab[l]) + len(t.vocab[r]); n > maxTokenBytes {
		return fmt.Errorf("merge (%d,%d) makes a %d-byte token, above the %d-byte cap", l, r, n, maxTokenBytes)
	}
	t.rank[key] = len(t.merges)
	t.merges = append(t.merges, merge{L: l, R: r})
	t.vocab = append(t.vocab, append(append([]byte{}, t.vocab[l]...), t.vocab[r]...))
	return nil
}

// VocabSize returns the number of token ids the tokenizer emits (257 byte
// ids plus one per learned merge). Model vocabularies must be at least
// this large.
func (t *Tokenizer) VocabSize() int { return byteVocab + len(t.merges) }

// trainBPE learns up to vocabSize-257 merges from sample, most-frequent
// pair first. Ties break toward the numerically smallest pair, so the
// merge list — and therefore every downstream token stream — is a pure
// function of the sample bytes. A pair whose token would exceed
// maxTokenBytes is never chosen. Training stops early when no pair repeats;
// the resulting vocab may be smaller than the budget on tiny corpora.
// vocabSize must be ≥ 257 (257 means zero merges, the byte tokenizer).
func trainBPE(sample []byte, vocabSize int) (*Tokenizer, error) {
	if vocabSize < byteVocab {
		return nil, fmt.Errorf("%w: %d (want ≥ %d)", ErrVocab, vocabSize, byteVocab)
	}
	seq := make([]int, len(sample))
	for i, b := range sample {
		seq[i] = int(b)
	}
	t := newByteTokenizer()
	counts := map[uint64]int{}
	for id := byteVocab; id < vocabSize; id++ {
		clear(counts)
		for i := 0; i+1 < len(seq); i++ {
			counts[pairKey(seq[i], seq[i+1])]++
		}
		bestKey, bestCount := uint64(0), 0
		for k, c := range counts {
			if (c > bestCount || (c == bestCount && k < bestKey)) &&
				len(t.vocab[k>>32])+len(t.vocab[uint32(k)]) <= maxTokenBytes {
				bestKey, bestCount = k, c
			}
		}
		if bestCount < 2 {
			break // nothing left worth merging
		}
		m := merge{L: int(bestKey >> 32), R: int(uint32(bestKey))}
		_ = t.addMerge(m.L, m.R) // cannot fail: a new pair, checked against the cap
		seq = mergePair(seq, m.L, m.R, id)
	}
	return t, nil
}

// mergePair rewrites every non-overlapping (l,r) occurrence in seq to id,
// left to right, in place.
func mergePair(seq []int, l, r, id int) []int {
	w := 0
	for i := 0; i < len(seq); {
		if i+1 < len(seq) && seq[i] == l && seq[i+1] == r {
			seq[w] = id
			i += 2
		} else {
			seq[w] = seq[i]
			i++
		}
		w++
	}
	return seq[:w]
}

// encodeInto tokenizes text and appends the ids to dst, returning the
// extended slice. Merges apply in training order (lowest merge index
// first), each rewriting every occurrence left to right — the standard
// greedy BPE encode. It never emits EOT; document separators are the
// packer's job.
//
// The symbols form a linked list over their byte positions, and a min-heap
// holds every adjacent pair that has a merge, keyed by (merge index, left
// position). The smallest key is popped; if its position has died or no
// longer holds that merge's pair, it is skipped, and otherwise the pair
// merges in place and the two pairs it forms with its neighbours are
// pushed. That is the rewrite above, bit for bit: merge i's output 257+i
// only feeds merges j > i, so indices pop in increasing order, and within
// one index ascending position with stale skips is the left-to-right,
// non-overlapping rewrite ("aaa" → [aa, a]). Cost: O(n log n) for n bytes,
// where rescanning the text once per applied merge is O(merges × n).
func (t *Tokenizer) encodeInto(dst []int, text []byte) []int {
	n := len(text)
	e := &t.enc
	if cap(e.sym) < n {
		e.sym, e.prev, e.next = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	sym, prev, next := e.sym[:n], e.prev[:n], e.next[:n]
	h := e.heap[:0]
	for i, b := range text {
		sym[i], prev[i], next[i] = int32(b), int32(i-1), int32(i+1)
		if i+1 < n {
			if m, ok := t.rank[pairKey(int(b), int(text[i+1]))]; ok {
				h = append(h, uint64(m)<<32|uint64(i))
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		key := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		m, p := int(key>>32), int32(uint32(key))
		q := next[p]
		if mg := t.merges[m]; sym[p] != int32(mg.L) || int(q) == n || sym[q] != int32(mg.R) {
			continue // stale: p died, or its pair changed since the push
		}
		r := next[q]
		sym[p], sym[q] = int32(byteVocab+m), -1
		next[p] = r
		if int(r) < n {
			prev[r] = p
			h = t.pushPair(h, sym, p, r)
		}
		if l := prev[p]; l >= 0 {
			h = t.pushPair(h, sym, l, p)
		}
	}
	e.heap = h
	for i := int32(0); int(i) < n; i = next[i] {
		dst = append(dst, int(sym[i]))
	}
	return dst
}

// pushPair pushes the pair at adjacent live positions (l, r) onto the heap
// h if it has a merge.
func (t *Tokenizer) pushPair(h []uint64, sym []int32, l, r int32) []uint64 {
	m, ok := t.rank[pairKey(int(sym[l]), int(sym[r]))]
	if !ok {
		return h
	}
	h = append(h, uint64(m)<<32|uint64(l))
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Encode is the allocating convenience form of encodeInto.
func (t *Tokenizer) Encode(text []byte) []int { return t.encodeInto(nil, text) }

// Decode returns the bytes of ids. EOT decodes to nothing. Unknown ids are
// ErrToken.
func (t *Tokenizer) Decode(ids []int) ([]byte, error) {
	var dst []byte
	for _, id := range ids {
		if id < 0 || id >= len(t.vocab) {
			return dst, fmt.Errorf("%w: %d (vocab %d)", ErrToken, id, len(t.vocab))
		}
		dst = append(dst, t.vocab[id]...)
	}
	return dst, nil
}

// tokenizerJSON is the on-disk vocab format: the ordered merge list fully
// determines the vocabulary, so nothing else is stored.
type tokenizerJSON struct {
	Kind   string   `json:"kind"` // always "bpe"
	Merges [][2]int `json:"merges"`
}

// saveJSON serializes the tokenizer's merge list.
func (t *Tokenizer) saveJSON() ([]byte, error) {
	out := tokenizerJSON{Kind: "bpe", Merges: make([][2]int, len(t.merges))}
	for i, m := range t.merges {
		out.Merges[i] = [2]int{m.L, m.R}
	}
	return json.MarshalIndent(out, "", "  ")
}

// loadTokenizerJSON rebuilds a tokenizer from saveJSON output, validating
// that every merge references only previously defined ids, appears once,
// and makes a token of at most maxTokenBytes (1 KiB) — so a vocab file's
// memory grows at most linearly with its length.
func loadTokenizerJSON(blob []byte) (*Tokenizer, error) {
	var in tokenizerJSON
	if err := json.Unmarshal(blob, &in); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTokenizerJSON, err)
	}
	if in.Kind != "bpe" {
		return nil, fmt.Errorf("%w: kind %q (want \"bpe\")", ErrTokenizerJSON, in.Kind)
	}
	t := newByteTokenizer()
	for i, p := range in.Merges {
		l, r := p[0], p[1]
		limit := byteVocab + i // ids defined so far
		if l < 0 || r < 0 || l >= limit || r >= limit || l == EOT || r == EOT {
			return nil, fmt.Errorf("%w: merge %d references id out of range (%d,%d)", ErrTokenizerJSON, i, l, r)
		}
		if err := t.addMerge(l, r); err != nil {
			return nil, fmt.Errorf("%w: merge %d: %v", ErrTokenizerJSON, i, err)
		}
	}
	return t, nil
}

// SaveTokenizerFile writes the vocab JSON to path.
func SaveTokenizerFile(t *Tokenizer, path string) error {
	blob, err := t.saveJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// loadTokenizerFile reads a vocab JSON written by SaveTokenizerFile.
func loadTokenizerFile(path string) (*Tokenizer, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("data: reading tokenizer: %w", err)
	}
	t, err := loadTokenizerJSON(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
