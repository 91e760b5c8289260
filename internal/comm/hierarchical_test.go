package comm

import (
	"errors"
	"math/rand"
	"testing"
)

// AllReduce on a laid-out view must compute the same sums as the flat ring
// for every (world, nodeSize) split, including sizes that do not divide the
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
				nodesOf(c, tc.nodeSize).AllReduce(x)
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

// A laid-out view's reduce-scatter and all-gather must honor an arbitrary
// ownership partition exactly like the flat collectives: after RS member i owns
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
		lc := nodesOf(c, nodeSize)
		lc.ReduceScatter(x, parts)
		own := parts[c.Rank()]
		for i := own.Lo; i < own.Hi; i++ {
			if !approxEqual(x[i:i+1], want[i:i+1], 1e-3) {
				t.Errorf("rank %d: owned elem %d = %v, want %v", c.Rank(), i, x[i], want[i])
				return
			}
		}
		// Re-gather: x outside the owned range holds garbage; AG must
		// overwrite everything with the owners' values.
		lc.AllGather(x, parts)
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
		nodesOf(c, nodeSize).withDType(F16).AllReduce(make([]float32, psi))
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

// Nodes validates the layout once, with structured errors instead of
// panics; the flat layouts return the view itself, and a laid-out view's
// collectives still refuse a partition of the wrong length.
func TestHierarchicalValidation(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, bad := range []int{3, 0, -2, 5} {
			if _, err := c.Nodes(bad); !errors.Is(err, ErrTopology) {
				t.Errorf("Nodes(%d): err = %v, want ErrTopology", bad, err)
			}
		}
		lc := nodesOf(c, 2)
		for _, flat := range []int{1, 4} {
			if got, err := c.Nodes(flat); err != nil || got != c {
				t.Errorf("Nodes(%d) = %p, %v; want the flat view itself", flat, got, err)
			}
			if got := nodesOf(lc, flat); got.nodes != nil {
				t.Errorf("Nodes(%d) of a laid-out view kept its layout", flat)
			}
		}
		defer func() {
			if recover() == nil {
				t.Error("a laid-out reduce-scatter accepted a short partition")
			}
		}()
		lc.ReduceScatter(make([]float32, 8), Partition(8, 2))
	})
}

func TestHierarchicalSingleRank(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		x := []float32{5}
		nodesOf(c, 1).AllReduce(x)
		if x[0] != 5 {
			t.Errorf("single-rank all-reduce changed data: %v", x[0])
		}
	})
}

// A Subgroup of a laid-out view drops the layout: its collectives — and
// those of a scheduler over it — route flat, with no "hier-*" traffic.
func TestSubgroupOfLaidOutViewRoutesFlat(t *testing.T) {
	const n, nodeSize, elems = 8, 2, 64
	w := NewWorld(n)
	sums := make([][]float32, n)
	w.Run(func(c *Comm) {
		base := c.Rank() / 4 * 4
		half, err := nodesOf(c, nodeSize).Subgroup([]int{base, base + 1, base + 2, base + 3})
		if err != nil {
			t.Error(err)
			return
		}
		if half.nodes != nil {
			t.Errorf("rank %d: subgroup kept the parent's node layout", c.Rank())
		}
		x := make([]float32, elems)
		for i := range x {
			x[i] = float32(c.Rank() + 1)
		}
		half.AllReduce(x)
		parts := Partition(elems, half.Size())
		s := NewScheduler(half)
		defer s.Close()
		s.Stream("grad").ReduceScatter(F32Buf(x), parts).Wait()
		s.Stream("grad").AllGather(F32Buf(x), parts).Wait()
		sums[c.Rank()] = x
	})
	for r := 0; r < n; r++ {
		base := r / 4 * 4
		want := float32(4 * (4*(base+1) + 6)) // the half's sum, all-reduced, then summed again over 4 members
		if sums[r][0] != want || sums[r][elems-1] != want {
			t.Errorf("rank %d: %v, want %v", r, sums[r][0], want)
		}
		st := w.Stats(r)
		if len(st.PerGroup) != 0 {
			t.Errorf("rank %d: group traffic %v on a flat subgroup, want none", r, st.PerGroup)
		}
		if want := int64(2 * 2 * elems * 3 / 4); st.ElemsSent != want { // two ring passes per collective pair
			t.Errorf("rank %d: %d elems sent, want the flat rings' %d", r, st.ElemsSent, want)
		}
	}
}
