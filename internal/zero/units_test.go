package zero

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/perfmodel"
)

// Under Overlap, binding gradient unit u waits the held handle of unit u+2
// — the unit that closed two before it, whose window it takes — and no
// other: a bucket handle is waited only where its window is released, and
// each release inside Backward is of the unit two above the one being
// bound, with its handle held, while unit u+1 stays bound with its handle
// held, as do ln_f's and the embeddings' windows. Backward's end then
// releases what is still bound: units 2 and 1, ln_f, the embeddings.
// Stages 0-3 on 2 ranks, three blocks, every step alike.
func TestOverlapBindWaitsUnitTwoLater(t *testing.T) {
	cfg := testConfig()
	cfg.Layers = 3
	const n, batch = 2, 4
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	last := 3*cfg.Layers + 1 // ln_f's unit
	var want []int
	for u := last - 1; u >= 1; u-- {
		want = append(want, u)
	}
	want = append(want, last, 0)
	for _, stage := range AllStages {
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: stage, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed, Overlap: true})
			defer tr.Close()
			var released []int
			tr.onRelease = func(v int, _ []float32) {
				if released = append(released, v); len(released) > last-3 {
					return // released at Backward's end
				}
				name := fmt.Sprintf("%v rank %d: releasing unit %d for unit %d", stage, c.Rank(), v, v-2)
				if w := tr.window(v); !w.last.Valid() {
					t.Errorf("%s: its handle was not held", name)
				}
				for _, u := range []int{v - 1, last} {
					if w := tr.window(u); w.unit != u || !w.last.Valid() {
						t.Errorf("%s: unit %d's window holds unit %d (handle held %v), want it bound with its handle held", name, u, w.unit, w.last.Valid())
					}
				}
				if w := tr.window(0); w.unit != 0 {
					t.Errorf("%s: the embeddings' window holds unit %d", name, w.unit)
				}
			}
			for s := 0; s < 2; s++ {
				released = released[:0]
				tr.Forward(ids, targets, batch)
				tr.Backward()
				if !slices.Equal(released, want) {
					t.Errorf("%v rank %d step %d: Backward released units %v, want %v", stage, c.Rank(), s, released, want)
				}
				tr.Update()
			}
		})
	}
}

// A stage-3 window that still holds the rank's own part of its group — it
// last served that group, and no publish has run since — is handed to the
// gather without copying that part in from the shard: in every Backward,
// the embeddings', ln_f's and blocks L-1's and L-2's windows, which Forward
// filled last. The other blocks' windows copy, and after an Update
// publishes every window copies again. The onHandOver seam reports the own
// part as kept exactly when no copy runs; four blocks on 2 ranks, in fp32
// and fp16, where rank 0 owns the embeddings and rank 1 blocks 2 and 3 and
// ln_f.
func TestStage3KeptOwnPartIsNotCopied(t *testing.T) {
	cfg := testConfig()
	cfg.Layers = 4
	const n, batch = 2, 4
	L := cfg.Layers
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	for _, fp16 := range []bool{false, true} {
		seen := make([]map[int]bool, n) // groups whose own part a Backward kept
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{
				Stage: StageFull, Optimizer: optimizer.Spec{LR: testLR}, Seed: testSeed,
				Overlap: true, Prefetch: true, FP16Compute: fp16, InitialLossScale: 256,
			})
			defer tr.Close()
			r := c.Rank()
			seen[r] = map[int]bool{}
			kept := map[int]bool{} // group → its own part was kept, this pass
			tr.onHandOver = func(g int, _ comm.Buffer, keep comm.Range) { kept[g] = keep.Len() > 0 }
			check := func(pass string, s int, want func(g int) bool) {
				if len(kept) != len(tr.groups) {
					t.Errorf("fp16=%v rank %d step %d: %s handed over %d windows, want %d", fp16, r, s, pass, len(kept), len(tr.groups))
				}
				for g, k := range kept {
					own := intersect(tr.parts, tr.groups[g].Lo, tr.groups[g].Hi)[r]
					if own.Len() > 0 && k != want(g) {
						t.Errorf("fp16=%v rank %d step %d: %s kept the own part of %s %v, want %v", fp16, r, s, pass, tr.groups[g].Name, k, want(g))
					}
					if own.Len() > 0 && k {
						seen[r][g] = true
					}
				}
				clear(kept)
			}
			for s := 0; s < 3; s++ {
				tr.Forward(ids, targets, batch)
				check("Forward", s, func(int) bool { return false })
				tr.Backward()
				check("Backward", s, func(g int) bool { return g == 0 || g >= L-1 })
				tr.Update()
			}
			if tr.OverflowSteps() != 0 {
				t.Errorf("fp16=%v rank %d: %d overflow-skipped steps, want every Update to publish", fp16, r, tr.OverflowSteps())
			}
		})
		for _, g := range []int{0, L - 1, L, L + 1} {
			if !seen[0][g] && !seen[1][g] {
				t.Errorf("fp16=%v: no rank kept its own part of group %d", fp16, g)
			}
		}
	}
}

// FuzzGradUnits checks, on random shapes, that the gradient units tile
// [0, Ψ) with runs of whole tensors, and that the bytes New allocates for
// gradient windows are perfmodel's W: 4·(|emb| + |ln_f| + 2·max|unit|).
func FuzzGradUnits(f *testing.F) {
	f.Add(uint8(2), uint8(16), uint8(2), uint8(19), uint8(8))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, layers, width, heads, vocab, seq uint8) {
		cfg := model.Config{Layers: 1 + int(layers)%6, Heads: 1 + int(heads)%4, Vocab: 1 + int(vocab), Seq: 1 + int(seq)%32}
		cfg.Hidden = cfg.Heads * (1 + int(width)%16)
		l := model.BuildLayout(cfg)
		bounds := map[int]bool{l.Total: true}
		for _, s := range l.Segments {
			bounds[s.Lo] = true
		}
		off := 0
		for _, u := range l.Units {
			if u.Lo != off || u.Hi <= u.Lo || !bounds[u.Hi] {
				t.Fatalf("%+v: unit %s is [%d, %d) after %d", cfg, u.Name, u.Lo, u.Hi, off)
			}
			off = u.Hi
		}
		if off != l.Total {
			t.Fatalf("%+v: units cover %d of %d parameters", cfg, off, l.Total)
		}
		comm.NewWorld(1).Run(func(c *comm.Comm) {
			tr := MustNew(c, cfg, Options{Stage: StageOSGrad, Optimizer: optimizer.Spec{LR: testLR}})
			defer tr.Close()
			var got int64
			for _, w := range tr.gwins {
				got += 4 * int64(len(w.buf))
			}
			if want := perfmodel.LiveModelState(perfmodel.Shape(cfg), int(StageOSGrad), int64(l.Total), false).Grads; got != want {
				t.Errorf("%+v: New allocated %d B of gradient windows, perfmodel's W is %d B", cfg, got, want)
			}
		})
	})
}
