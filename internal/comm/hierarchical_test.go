package comm

import (
	"errors"
	"math/rand"
	"testing"
)

// Hierarchical all-reduce must compute the same sums as the flat ring for
// every (world, nodeSize) split, including sizes that do not divide the
// buffer evenly.
func TestHierarchicalAllReduceCorrectness(t *testing.T) {
	cases := []struct{ n, nodeSize int }{
		{4, 2}, {8, 2}, {8, 4}, {12, 4}, {16, 4}, {6, 3}, {4, 4}, {4, 1},
	}
	for _, tc := range cases {
		for _, size := range []int{1, 7, 64, 1013} {
			r := rand.New(rand.NewSource(int64(tc.n*10000 + tc.nodeSize*100 + size)))
			inputs := make([][]float32, tc.n)
			for i := range inputs {
				inputs[i] = randVec(r, size)
			}
			want := expectedSum(inputs)
			w := NewWorld(tc.n)
			results := make([][]float32, tc.n)
			w.Run(func(c *Comm) {
				x := append([]float32(nil), inputs[c.Rank()]...)
				if err := c.AllReduceHierarchical(F32Buf(x), tc.nodeSize); err != nil {
					t.Errorf("n=%d node=%d: %v", tc.n, tc.nodeSize, err)
				}
				results[c.Rank()] = x
			})
			for rk, got := range results {
				if !approxEqual(got, want, 1e-3) {
					t.Fatalf("n=%d node=%d size=%d rank %d: hierarchical sum mismatch",
						tc.n, tc.nodeSize, size, rk)
				}
			}
		}
	}
}

// The reduce-scatter/all-gather forms must honor an arbitrary ownership
// partition exactly like the flat collectives: after RS member i owns
// parts[i] fully reduced, and after AG everyone holds everything —
// bitwise equal to the flat all-gather (gathers copy, they never reassociate).
func TestHierarchicalReduceScatterAllGatherOwnership(t *testing.T) {
	const n, nodeSize, size = 8, 4, 103 // uneven: Partition leaves ragged ranges
	r := rand.New(rand.NewSource(9))
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = randVec(r, size)
	}
	want := expectedSum(inputs)
	parts := Partition(size, n)
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		x := append([]float32(nil), inputs[c.Rank()]...)
		if err := c.ReduceScatterHierarchical(F32Buf(x), parts, nodeSize); err != nil {
			t.Error(err)
			return
		}
		own := parts[c.Rank()]
		for i := own.Lo; i < own.Hi; i++ {
			if !approxEqual(x[i:i+1], want[i:i+1], 1e-3) {
				t.Errorf("rank %d: owned elem %d = %v, want %v", c.Rank(), i, x[i], want[i])
				return
			}
		}
		// Re-gather: x outside the owned range holds garbage; AG must
		// overwrite everything with the owners' values.
		if err := c.AllGatherHierarchical(F32Buf(x), parts, nodeSize); err != nil {
			t.Error(err)
			return
		}
		if !approxEqual(x, want, 1e-3) {
			t.Errorf("rank %d: gathered buffer mismatch", c.Rank())
		}
	})
}

// The point of the hierarchy: per-rank *inter-node* traffic shrinks by the
// node width. For Ψ elements, N ranks, M nodes of size S: flat ring sends
// 2Ψ(N-1)/N inter-or-intra; hierarchical sends only ≈2(Ψ/S)(M-1)/M across
// nodes. Bytes are native to the buffer dtype (F16 ⇒ 2 B/elem).
func TestHierarchicalInterNodeVolume(t *testing.T) {
	const psi = 1 << 12
	const n, nodeSize = 8, 4
	const nodes = n / nodeSize
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		x := make([]float32, psi)
		if err := c.AllReduceHierarchical(F16Buf(x), nodeSize); err != nil {
			t.Error(err)
		}
	})
	wantInter := int64(2 * (psi / nodeSize) * (nodes - 1) / nodes)
	wantIntra := int64(2 * psi * (nodeSize - 1) / nodeSize)
	flatTotal := int64(2 * psi * (n - 1) / n)
	for r := 0; r < n; r++ {
		st := w.Stats(r)
		inter := st.PerGroup["hier-inter"]
		intra := st.PerGroup["hier-intra"]
		if inter.Elems != wantInter {
			t.Errorf("rank %d inter-node elems %d, want %d", r, inter.Elems, wantInter)
		}
		if intra.Elems != wantIntra {
			t.Errorf("rank %d intra-node elems %d, want %d", r, intra.Elems, wantIntra)
		}
		// The split is exhaustive: intra + inter = the flat ring's volume.
		if intra.Elems+inter.Elems != flatTotal {
			t.Errorf("rank %d: intra %d + inter %d != flat total %d", r, intra.Elems, inter.Elems, flatTotal)
		}
		if inter.Elems*4 > flatTotal {
			t.Errorf("rank %d: hierarchy should cut inter-node traffic ≥4x vs flat ring (%d vs %d)",
				r, inter.Elems, flatTotal)
		}
		// Native byte accounting on the group keys: fp16 wire = 2 B/elem.
		if inter.Bytes != 2*inter.Elems || intra.Bytes != 2*intra.Elems {
			t.Errorf("rank %d: group bytes not fp16-native (intra %+v, inter %+v)", r, intra, inter)
		}
	}
}

// Topology construction returns structured errors instead of panicking.
func TestHierarchicalValidation(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, bad := range []int{3, 0, -2, 5} {
			if err := c.AllReduceHierarchical(F32Buf(make([]float32, 8)), bad); !errors.Is(err, ErrTopology) {
				t.Errorf("nodeSize %d: err = %v, want ErrTopology", bad, err)
			}
			if _, err := c.nodeTopology(bad); !errors.Is(err, ErrTopology) {
				t.Errorf("nodeTopology(%d): err = %v, want ErrTopology", bad, err)
			}
		}
		parts := Partition(8, 2) // wrong count for a 4-rank world
		if err := c.ReduceScatterHierarchical(F32Buf(make([]float32, 8)), parts, 2); !errors.Is(err, ErrGroup) {
			t.Error("short partition must return ErrGroup")
		}
	})
}

func TestHierarchicalSingleRank(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		x := []float32{5}
		if err := c.AllReduceHierarchical(F32Buf(x), 1); err != nil {
			t.Error(err)
		}
		if x[0] != 5 {
			t.Errorf("single-rank hierarchical changed data: %v", x[0])
		}
	})
}
