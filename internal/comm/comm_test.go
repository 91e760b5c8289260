package comm

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// expectedSum builds the elementwise sum of per-rank inputs.
func expectedSum(inputs [][]float32) []float32 {
	out := make([]float32, len(inputs[0]))
	for _, in := range inputs {
		for i, v := range in {
			out[i] += v
		}
	}
	return out
}

func approxEqual(a, b []float32, tol float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

func TestAllReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, size := range []int{1, 5, 64, 1000} {
			r := rand.New(rand.NewSource(int64(n*1000 + size)))
			inputs := make([][]float32, n)
			for i := range inputs {
				inputs[i] = randVec(r, size)
			}
			want := expectedSum(inputs)
			w := NewWorld(n)
			results := make([][]float32, n)
			w.Run(func(c *Comm) {
				x := append([]float32(nil), inputs[c.Rank()]...)
				c.AllReduce(x)
				results[c.Rank()] = x
			})
			for rk, got := range results {
				if !approxEqual(got, want, 1e-4) {
					t.Fatalf("n=%d size=%d rank %d: allreduce mismatch", n, size, rk)
				}
			}
		}
	}
}

func TestAllReduceAvg(t *testing.T) {
	n := 4
	w := NewWorld(n)
	results := make([][]float32, n)
	w.Run(func(c *Comm) {
		x := []float32{float32(c.Rank()), 8}
		c.AllReduceAvg(x)
		results[c.Rank()] = x
	})
	for rk, got := range results {
		if got[0] != 1.5 || got[1] != 8 {
			t.Errorf("rank %d: avg = %v, want [1.5 8]", rk, got)
		}
	}
}

// A steady-state AllReduce allocates nothing on any rank: the ring computes
// its even chunk ranges per step and every wire copy rides the pooled
// buffers. Counted like internal/zero/alloc_test.go — rank 0 reads the
// allocator while the other ranks are parked in a barrier — with the same
// kind of slack: a wire-pool Get can race a Put and allocate once as the
// pool's high-water mark settles, which is drift, not a per-call cost (the
// per-call range list this pins out cost one object per rank per call).
func TestAllReduceSteadyStateAllocsZero(t *testing.T) {
	const n, elems, warm, calls, slack = 4, 1000, 100, 100, 2
	w := NewWorld(n)
	var allocs uint64
	w.Run(func(c *Comm) {
		x := make([]float32, elems)
		for i := 0; i < warm; i++ {
			c.AllReduce(x)
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < calls; i++ {
			c.AllReduce(x)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			allocs = m1.Mallocs - m0.Mallocs
		}
		c.Barrier()
	})
	if allocs > slack {
		t.Errorf("%d steady-state %d-rank AllReduces allocated %d objects, want 0 (slack %d)", calls, n, allocs, slack)
	}
}

func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		size := 97 // deliberately not divisible by n
		r := rand.New(rand.NewSource(int64(n)))
		inputs := make([][]float32, n)
		for i := range inputs {
			inputs[i] = randVec(r, size)
		}
		want := expectedSum(inputs)
		w := NewWorld(n)
		results := make([][]float32, n)
		w.Run(func(c *Comm) {
			x := append([]float32(nil), inputs[c.Rank()]...)
			parts := Partition(len(x), c.Size())
			shard := c.ReduceScatter(x, parts)
			// Shard must alias x at this rank's partition.
			p := parts[c.Rank()]
			if len(shard) != p.Len() {
				t.Errorf("rank %d shard len %d, want %d", c.Rank(), len(shard), p.Len())
			}
			c.AllGather(x, parts)
			results[c.Rank()] = x
		})
		for rk, got := range results {
			if !approxEqual(got, want, 1e-4) {
				t.Fatalf("n=%d rank %d: rs+ag != allreduce", n, rk)
			}
		}
	}
}

func TestBroadcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		for root := 0; root < n; root++ {
			want := randVec(rand.New(rand.NewSource(int64(root))), 37)
			w := NewWorld(n)
			results := make([][]float32, n)
			w.Run(func(c *Comm) {
				x := make([]float32, len(want))
				if c.Rank() == root {
					copy(x, want)
				}
				c.Broadcast(x, root)
				results[c.Rank()] = x
			})
			for rk, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d root=%d rank %d: broadcast mismatch", n, root, rk)
				}
			}
		}
	}
}

func TestReduceToRoot(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		for root := 0; root < n; root += n - 1 {
			r := rand.New(rand.NewSource(int64(n + root)))
			inputs := make([][]float32, n)
			for i := range inputs {
				inputs[i] = randVec(r, 41)
			}
			want := expectedSum(inputs)
			w := NewWorld(n)
			var rootGot []float32
			w.Run(func(c *Comm) {
				x := append([]float32(nil), inputs[c.Rank()]...)
				c.Reduce(x, root)
				if c.Rank() == root {
					rootGot = x
				}
			})
			if !approxEqual(rootGot, want, 1e-4) {
				t.Fatalf("n=%d root=%d: reduce mismatch", n, root)
			}
		}
	}
}

func TestGather(t *testing.T) {
	n := 5
	w := NewWorld(n)
	var got [][]float32
	w.Run(func(c *Comm) {
		shard := []float32{float32(c.Rank()), float32(c.Rank() * 10)}
		if c.Rank() == 2 {
			out := make([][]float32, n)
			c.Gather(shard, 2, out)
			got = out
		} else {
			c.Gather(shard, 2, nil)
		}
	})
	for r := 0; r < n; r++ {
		want := []float32{float32(r), float32(r * 10)}
		if !reflect.DeepEqual(got[r], want) {
			t.Errorf("gather slot %d = %v, want %v", r, got[r], want)
		}
	}
}

func TestBarrier(t *testing.T) {
	n := 8
	w := NewWorld(n)
	var mu sync.Mutex
	phase := make([]int, 0, 2*n)
	w.Run(func(c *Comm) {
		mu.Lock()
		phase = append(phase, 1)
		mu.Unlock()
		c.Barrier()
		mu.Lock()
		phase = append(phase, 2)
		mu.Unlock()
	})
	// All phase-1 entries must precede all phase-2 entries.
	for i := 0; i < n; i++ {
		if phase[i] != 1 {
			t.Fatalf("entry %d = %d, want 1 (barrier leaked)", i, phase[i])
		}
	}
	for i := n; i < 2*n; i++ {
		if phase[i] != 2 {
			t.Fatalf("entry %d = %d, want 2", i, phase[i])
		}
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []float32{3, 1, 4})
			got := c.Recv(1)
			if !reflect.DeepEqual(got, []float32{1, 5, 9}) {
				t.Errorf("rank 0 received %v", got)
			}
		} else {
			got := c.Recv(0)
			if !reflect.DeepEqual(got, []float32{3, 1, 4}) {
				t.Errorf("rank 1 received %v", got)
			}
			c.Send(0, []float32{1, 5, 9})
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{42}
			c.Send(1, buf)
			buf[0] = -1 // mutating after send must not affect the receiver
			c.Barrier()
		} else {
			got := c.Recv(0)
			c.Barrier()
			if got[0] != 42 {
				t.Errorf("receiver saw mutated buffer: %v", got)
			}
		}
	})
}

// Volume identities from §7.1: ring all-reduce moves 2Ψ(N-1)/N per rank,
// reduce-scatter and all-gather each move Ψ(N-1)/N.
func TestCollectiveVolumeIdentities(t *testing.T) {
	const psi int64 = 1200
	for _, n := range []int{2, 3, 4, 8} {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			x := make([]float32, psi)
			c.AllReduce(x)
		})
		perRank := ringVolume(psi, n) * 2
		for r := 0; r < n; r++ {
			if got := w.Stats(r).ElemsSent; got != perRank {
				t.Errorf("n=%d allreduce rank %d sent %d elems, want %d", n, r, got, perRank)
			}
		}

		w.ResetStats()
		w.Run(func(c *Comm) {
			x := make([]float32, psi)
			parts := Partition(len(x), c.Size())
			c.ReduceScatter(x, parts)
		})
		for r := 0; r < n; r++ {
			got := w.Stats(r).ElemsSent
			if got > ringVolume(psi, n)+psi/int64(n)+1 || got < ringVolume(psi, n)-psi/int64(n)-1 {
				t.Errorf("n=%d reducescatter rank %d sent %d elems, want ≈%d", n, r, got, ringVolume(psi, n))
			}
		}
	}
}

// ringVolume is the exact per-rank element count of one ring phase when psi
// divides evenly: psi*(n-1)/n.
func ringVolume(psi int64, n int) int64 {
	return psi * int64(n-1) / int64(n)
}

func TestPartitionProperties(t *testing.T) {
	// Properties: ranges are contiguous, disjoint, cover [0,n), and sizes
	// differ by at most one.
	f := func(n uint16, parts uint8) bool {
		p := int(parts%64) + 1
		total := int(n)
		ranges := Partition(total, p)
		if len(ranges) != p {
			return false
		}
		lo := 0
		minLen, maxLen := total+1, -1
		for _, r := range ranges {
			if r.Lo != lo || r.Hi < r.Lo {
				return false
			}
			lo = r.Hi
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		return lo == total && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	// More parts than elements: trailing ranges are empty.
	ranges := Partition(3, 5)
	lens := []int{1, 1, 1, 0, 0}
	for i, r := range ranges {
		if r.Len() != lens[i] {
			t.Errorf("Partition(3,5)[%d].Len() = %d, want %d", i, r.Len(), lens[i])
		}
	}
	if got := Partition(0, 3); got[2].Hi != 0 {
		t.Error("Partition(0,3) should produce empty ranges")
	}
}

func TestWorldValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero world", func() { NewWorld(0) })
	w := NewWorld(2)
	mustPanic("rank range", func() { w.Comm(2) })
	mustPanic("send self", func() { w.Comm(0).Send(0, nil) })
}

// Property: all-reduce result equals the float64 reference sum on random
// vectors across random world sizes.
func TestAllReduceQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%7) + 1
		size := int(sizeRaw%200) + 1
		r := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, n)
		for i := range inputs {
			inputs[i] = randVec(r, size)
		}
		want := expectedSum(inputs)
		w := NewWorld(n)
		ok := true
		var mu sync.Mutex
		w.Run(func(c *Comm) {
			x := append([]float32(nil), inputs[c.Rank()]...)
			c.AllReduce(x)
			if !approxEqual(x, want, 1e-3) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
