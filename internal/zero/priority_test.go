package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
)

// The gradient-clip partial exchange runs on the default domain, not the
// grad stream: its N floats must never queue behind megabyte gradient
// buckets. The grad stream carries the same traffic with clipping on or off.
func TestClipPartialsRideThePriorityStream(t *testing.T) {
	const ranks, batch, steps = 4, 4, 3
	cfg := model.Config{Layers: 2, Hidden: 32, Heads: 2, Vocab: 32, Seq: 16}
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	run := func(clip float64) comm.Stats {
		w := comm.NewWorld(ranks)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: 1e-3}, Seed: 1,
				BucketElems: 256, Overlap: true, ClipNorm: clip,
			})
			defer tr.Close()
			for i := 0; i < steps; i++ {
				tr.Step(ids, targets, batch)
			}
			if clip > 0 && tr.LastGradNorm <= 0 {
				t.Errorf("rank %d: clipping did not run (norm %v)", c.Rank(), tr.LastGradNorm)
			}
		})
		return w.Stats(0)
	}
	st, flat := run(1), run(0)
	// Each boundary all-gathers N floats over N ranks: N-1 elems sent per
	// rank per step — and nothing else runs on the default domain.
	if want := int64(steps * (ranks - 1)); st.PerStream[comm.DefaultStream] != want {
		t.Errorf("default-domain elems = %d, want %d", st.PerStream[comm.DefaultStream], want)
	}
	if st.PerStream[StreamGrad] == 0 || st.PerStream[StreamGrad] != flat.PerStream[StreamGrad] {
		t.Errorf("grad-stream elems %d with clipping, %d without: the partials must not ride it",
			st.PerStream[StreamGrad], flat.PerStream[StreamGrad])
	}
}

// LAMB's 2·#tensors trust-ratio norm exchange uses the same domain: one
// all-gather of 2·#tensors floats per rank, and nothing on the grad stream.
func TestLAMBNormsRideThePriorityStream(t *testing.T) {
	const ranks, batch = 4, 4
	cfg := model.Config{Layers: 2, Hidden: 32, Heads: 2, Vocab: 32, Seq: 16}
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)
	run := func(kind optimizer.Kind) comm.Stats {
		w := comm.NewWorld(ranks)
		w.Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageOS, Seed: 1,
				Optimizer: optimizer.Spec{Kind: kind, LR: 1e-3},
			})
			defer tr.Close()
			tr.Step(ids, targets, batch)
		})
		return w.Stats(0)
	}
	st, adam := run(optimizer.KindLAMB), run(optimizer.KindAdam)
	tensors := len(model.New(cfg, 1).Layout.Segments)
	if want := int64(2 * tensors * (ranks - 1)); st.PerStream[comm.DefaultStream] != want {
		t.Errorf("LAMB norm partials: %d default-domain elems, want %d", st.PerStream[comm.DefaultStream], want)
	}
	if st.PerStream[StreamGrad] != adam.PerStream[StreamGrad] {
		t.Errorf("grad-stream elems %d under LAMB, %d under Adam: the norms must not ride it",
			st.PerStream[StreamGrad], adam.PerStream[StreamGrad])
	}
}

// The point of the default domain, under -race: small latency-bound
// gathers complete while bucket-sized reduce-scatters are still in flight
// on the grad stream. Every rank leaves a deep pipeline of big ops
// unwaited, runs the clip-style gather on its own communicator, and only
// then drains the grad stream — with a single shared FIFO this schedule
// would serialize the small op behind ~all the big ones; on separate
// ordering domains it pairs independently.
func TestPrioritySmallOpsBypassBucketTraffic(t *testing.T) {
	const ranks, big, rounds = 4, 1 << 15, 8
	w := comm.NewWorld(ranks)
	results := make([][]float32, ranks)
	w.Run(func(c *comm.Comm) {
		s := comm.NewScheduler(c)
		defer s.Close()
		grad := s.Stream(StreamGrad)
		bigBuf := make([]float32, big)
		for i := range bigBuf {
			bigBuf[i] = 1
		}
		bigParts := comm.Partition(big, ranks)
		for r := 0; r < rounds; r++ {
			grad.ReduceScatter(comm.F32Buf(bigBuf), bigParts) // unwaited: stays in flight
		}
		// The "clip partial": one float per rank, gathered while the grad
		// stream is saturated.
		partials := make([]float32, ranks)
		partials[c.Rank()] = float32(c.Rank() + 1)
		c.AllGather(partials, comm.Partition(ranks, ranks))
		results[c.Rank()] = partials
		grad.Flush()
	})
	for r := 0; r < ranks; r++ {
		for i, v := range results[r] {
			if v != float32(i+1) {
				t.Fatalf("rank %d: default-domain gather slot %d = %v, want %v", r, i, v, float32(i+1))
			}
		}
	}
	st := w.Stats(0)
	if st.PerStream[comm.DefaultStream] == 0 || st.PerStream[StreamGrad] == 0 {
		t.Fatal("expected concurrent traffic on both the grad stream and the default domain")
	}
}
