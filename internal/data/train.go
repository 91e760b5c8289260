package data

import (
	"fmt"
	"io"
	"os"
)

// DefaultZerotokTrainBytes is the standalone trainer's sample budget —
// larger than the in-process DefaultTrainBytes because vocab training as
// a separate offline step (cmd/zerotok) can afford it.
const DefaultZerotokTrainBytes = 4 << 20

// TrainStats reports what a corpus-level BPE training run consumed.
type TrainStats struct {
	// Docs is how many framed documents fed the sample.
	Docs int
	// SampleBytes is the training sample size after framing (separators
	// normalized, documents capped at maxDocBytes).
	SampleBytes int
	// SampleTokens is the sample's token count under the trained
	// vocabulary — SampleBytes/SampleTokens is the compression ratio.
	SampleTokens int
}

// TrainFromCorpus trains a byte-level BPE vocabulary of up to vocabSize
// ids from the head of the corpus at path (a file, or a directory of
// files — see corpusFiles), framing the text through the same streaming
// document scanner the Loader uses (chunked reads, blank line separators,
// file boundaries, maxDocBytes splits — 0 means DefaultMaxDocBytes), so
// the committed vocabulary sees exactly the documents training will.
// trainBytes caps the sample (0 = DefaultZerotokTrainBytes). This is the
// engine behind cmd/zerotok: train once offline, commit the vocab JSON,
// and point configs at it instead of re-training at every Open.
func TrainFromCorpus(path string, vocabSize, trainBytes, maxDocBytes int) (*Tokenizer, TrainStats, error) {
	var stats TrainStats
	if trainBytes <= 0 {
		trainBytes = DefaultZerotokTrainBytes
	}
	paths, err := corpusFiles(path)
	if err != nil {
		return nil, stats, err
	}

	// Build the sample from framed documents joined by the same "\n\n"
	// separator framing removed, stopping at the byte budget.
	var sc *docScanner
	sample := make([]byte, 0, trainBytes)
	for _, p := range paths {
		if len(sample) >= trainBytes {
			break
		}
		f, err := os.Open(p)
		if err != nil {
			return nil, stats, fmt.Errorf("data: opening corpus: %w", err)
		}
		if sc == nil {
			sc = newDocScanner(f, 0, maxDocBytes)
		} else {
			sc.reset(f)
		}
		for len(sample) < trainBytes {
			doc, err := sc.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, stats, err
			}
			if len(sample) > 0 {
				sample = append(sample, '\n', '\n')
			}
			if room := trainBytes - len(sample); len(doc) > room {
				doc = doc[:room]
			}
			sample = append(sample, doc...)
			stats.Docs++
		}
		f.Close()
	}
	if len(sample) == 0 {
		return nil, stats, fmt.Errorf("%w: empty corpus %s", ErrCorpus, path)
	}
	stats.SampleBytes = len(sample)

	t, err := trainBPE(sample, vocabSize)
	if err != nil {
		return nil, stats, err
	}
	stats.SampleTokens = len(t.Encode(sample))
	return t, stats, nil
}
