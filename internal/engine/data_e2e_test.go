package engine

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/losscurve"
	"repro/internal/zero"
)

// runCorpusTraining trains the checked-in examples/corpus job for `steps`
// optimizer steps through the streaming data path and returns rank 0's
// per-step boundary losses. Every rank opens its own Loader; the streams
// are seeded, so all ranks derive the same global batch sequence.
func runCorpusTraining(t *testing.T, steps int) []float64 {
	t.Helper()
	cfg, err := LoadConfig("../../examples/corpus/config.json")
	if err != nil {
		t.Fatal(err)
	}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, 0, steps)
	_, err = Run(norm, func(e *Engine) {
		ld, lerr := OpenData(norm)
		if lerr != nil {
			t.Error(lerr)
			return
		}
		defer ld.Close()
		for s := 0; s < steps; s++ {
			l := e.TrainStream(ld)
			if e.Rank() == 0 {
				losses = append(losses, l)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != steps {
		t.Fatalf("collected %d losses, want %d", len(losses), steps)
	}
	return losses
}

// The ISSUE acceptance criterion: `zerotrain -config examples/corpus/config.json`
// trains end-to-end on a real text file, the loss descends on trend, and a
// golden pins the trajectory bit for bit (modulo FMA contraction, hence the
// 1e-9 relative tolerance shared with the stage-equivalence goldens).
func TestCorpusTrainingGolden(t *testing.T) {
	golden := []float64{
		6.2286656575114563,
		6.2323105253373896,
		6.1790784039375648,
		6.1093884646671004,
		6.0669298406480578,
		6.0286071325838932,
		5.9545612901636353,
		5.9177407029340827,
		5.8461921336057383,
		5.7579306156310013,
	}
	got := runCorpusTraining(t, len(golden))
	for i, want := range golden {
		if math.Abs(got[i]-want) > 1e-9*math.Abs(want) {
			t.Errorf("step %d: loss %.17g, want %.17g", i+1, got[i], want)
		}
	}
	if slope := losscurve.FitSlope(got); slope >= 0 {
		t.Errorf("corpus loss trajectory does not descend on trend: slope %g, losses %v", slope, got)
	}
}

// Two independent processes-worth of state — fresh engine, fresh loaders,
// freshly trained tokenizer — replay the identical trajectory bitwise.
func TestCorpusTrainingDeterministic(t *testing.T) {
	a := runCorpusTraining(t, 6)
	b := runCorpusTraining(t, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: run A loss %.17g != run B loss %.17g", i+1, a[i], b[i])
		}
	}
}

// Resume fast-forwards the corpus stream: a run saved at boundary 2 and
// resumed in a fresh world with fresh loaders trains boundaries 3 and 4 on
// the batches an uninterrupted run sees there, and ends in its state bit
// for bit. A resume that restarted the stream would re-train on the first
// two global batches.
func TestResumeFastForwardsCorpus(t *testing.T) {
	cfg, err := LoadConfig("../../examples/corpus/config.json")
	if err != nil {
		t.Fatal(err)
	}
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	const saveAt, steps = 2, 4
	run := func(resume *zero.Snapshot, until int) []byte {
		var out []byte
		if _, err := Run(norm, func(e *Engine) {
			ld, err := OpenData(norm)
			if err != nil {
				t.Error(err)
				return
			}
			defer ld.Close()
			if resume != nil {
				if err := e.Resume(resume, ld); err != nil {
					t.Error(err)
					return
				}
			}
			for e.Steps() < until {
				e.TrainStream(ld)
			}
			if s := e.Save(); s != nil {
				out, err = encode(s)
				if err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	saved, err := zero.DecodeSnapshot(run(nil, saveAt))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run(saved, steps), run(nil, steps); !bytes.Equal(got, want) {
		t.Error("resumed at boundary 2: the state after boundary 4 differs from the uninterrupted run's")
	}
}
