package comm

import (
	"errors"
	"math/rand"
	"testing"
)

// collectiveOp names one group-generic collective exercised by the
// partition property test.
type collectiveOp struct {
	name string
	run  func(c *Comm, x []float32)
}

var propertyOps = []collectiveOp{
	{"allreduce", func(c *Comm, x []float32) { c.AllReduce(x) }},
	{"reducescatter", func(c *Comm, x []float32) { c.ReduceScatter(x, Partition(len(x), c.Size())) }},
	{"allgather", func(c *Comm, x []float32) { c.AllGather(x, Partition(len(x), c.Size())) }},
	{"broadcast", func(c *Comm, x []float32) { c.Broadcast(x, c.Size()-1) }},
}

// Property: for ANY Split partition of ANY world, a group collective is
// bitwise equal to the flat collective run on a world of exactly the
// group's size with the members' buffers — the ring arithmetic depends
// only on (group size, group rank), never on which global ranks the group
// happens to contain. Buffer sizes include lengths smaller than the group
// size, so Partition's empty ranges are exercised.
func TestPropertySplitGroupsMatchFlatBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 24; trial++ {
		n := 2 + r.Intn(8)
		colors := make([]int, n)
		for i := range colors {
			colors[i] = r.Intn(3)
		}
		size := 1 + r.Intn(40) // often < n: uneven/empty partition ranges
		op := propertyOps[trial%len(propertyOps)]
		inputs := make([][]float32, n)
		for i := range inputs {
			inputs[i] = randVec(r, size)
		}

		w := NewWorld(n)
		got := make([][]float32, n)
		w.Run(func(c *Comm) {
			g, err := c.Split(colors[c.Rank()], c.Rank())
			if err != nil {
				t.Errorf("Split: %v", err)
				return
			}
			x := append([]float32(nil), inputs[c.Rank()]...)
			op.run(g, x)
			got[c.Rank()] = x
		})

		for color := 0; color < 3; color++ {
			var members []int
			for i, col := range colors {
				if col == color {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			fw := NewWorld(len(members))
			ref := make([][]float32, len(members))
			fw.Run(func(c *Comm) {
				x := append([]float32(nil), inputs[members[c.Rank()]]...)
				op.run(c, x)
				ref[c.Rank()] = x
			})
			for i, m := range members {
				for j := range ref[i] {
					if got[m][j] != ref[i][j] {
						t.Fatalf("trial %d op %s n=%d size=%d color %d member %d elem %d: group %v != flat %v",
							trial, op.name, n, size, color, m, j, got[m][j], ref[i][j])
					}
				}
			}
		}
	}
}

// Split's member order is (key, parent rank): reversed keys reverse the
// group's rank order, and ColorNone ranks get no communicator.
func TestSplitKeysAndColorNone(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = ColorNone
		}
		g, err := c.Split(color, -c.Rank()) // reversed order
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 2 {
			if g != nil {
				t.Error("ColorNone rank must get a nil communicator")
			}
			return
		}
		if g.Size() != n-1 {
			t.Errorf("rank %d: group size %d, want %d", c.Rank(), g.Size(), n-1)
		}
		// Reversed keys: global rank 4 is group rank 0, global 0 is last.
		wantPos := map[int]int{4: 0, 3: 1, 1: 2, 0: 3}[c.Rank()]
		if g.Rank() != wantPos {
			t.Errorf("rank %d: group rank %d, want %d", c.Rank(), g.Rank(), wantPos)
		}
		if g.GlobalRank() != c.Rank() {
			t.Errorf("rank %d: GlobalRank %d", c.Rank(), g.GlobalRank())
		}
		// A quick collective sanity check in the permuted order.
		x := []float32{float32(c.Rank())}
		g.AllReduce(x)
		if x[0] != 0+1+3+4 {
			t.Errorf("rank %d: permuted group sum %v", c.Rank(), x[0])
		}
	})
}

// An invalid color anywhere fails the Split on every member — nobody is
// left blocked waiting for a group that will never assemble.
func TestSplitInvalidColorFailsEverywhere(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		color := c.Rank()
		if c.Rank() == 3 {
			color = -7
		}
		if _, err := c.Split(color, 0); !errors.Is(err, ErrColor) {
			t.Errorf("rank %d: err = %v, want ErrColor", c.Rank(), err)
		}
	})
}

// Colors and keys travel as int32 on the wire; values that do not fit must
// fail loudly on every member (never silently truncate and merge groups).
func TestSplitRejectsInt32Overflow(t *testing.T) {
	if int64(int(^uint(0)>>1)) <= int64(1)<<31 {
		t.Skip("32-bit int platform: overflow is unrepresentable")
	}
	const n = 2
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 1 {
			color = 1 << 32 // would truncate to 0 and merge with rank 0's group
		}
		if _, err := c.Split(color, 0); !errors.Is(err, ErrColor) {
			t.Errorf("rank %d: err = %v, want ErrColor for overflowing color", c.Rank(), err)
		}
	})
	w2 := NewWorld(n)
	w2.Run(func(c *Comm) {
		if _, err := c.Split(0, 1<<40); !errors.Is(err, ErrColor) {
			t.Errorf("rank %d: err = %v, want ErrColor for overflowing key", c.Rank(), err)
		}
	})
}

// Subgroup membership validation returns structured ErrGroup errors.
func TestSubgroupValidation(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, tc := range []struct {
			name    string
			members []int
		}{
			{"not a member", []int{1, 2}},
			{"duplicate", []int{0, 0}},
			{"out of range", []int{0, 9}},
			{"negative", []int{0, -1}},
			{"empty", nil},
		} {
			if _, err := c.Subgroup(tc.members); !errors.Is(err, ErrGroup) {
				t.Errorf("%s: err = %v, want ErrGroup", tc.name, err)
			}
		}
		if _, err := c.MPGroup(3); !errors.Is(err, ErrTopology) {
			t.Error("indivisible mpSize must return ErrTopology")
		}
		// Roots are group-local ranks; out-of-range roots fail loudly
		// instead of silently re-rooting at member 0.
		for _, root := range []int{-1, 4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Broadcast root %d: expected panic", root)
					}
				}()
				c.Broadcast(make([]float32, 2), root)
			}()
		}
	})
}

// The 2D layout helpers: MP groups are consecutive, DP groups strided, and a
// group all-reduce only touches its members.
func TestGroupTopology(t *testing.T) {
	const world, mpSize = 6, 3
	w := NewWorld(world)
	sums := make([]float32, world)
	w.Run(func(c *Comm) {
		mpGroup, err := c.MPGroup(mpSize)
		if err != nil {
			t.Error(err)
			return
		}
		dpGroup, err := c.DPGroup(mpSize)
		if err != nil {
			t.Error(err)
			return
		}
		if mpGroup.Size() != mpSize || dpGroup.Size() != world/mpSize {
			t.Errorf("rank %d: group sizes %d/%d", c.Rank(), mpGroup.Size(), dpGroup.Size())
		}
		if mpGroup.Rank() != c.Rank()%mpSize || dpGroup.Rank() != c.Rank()/mpSize {
			t.Errorf("rank %d: MP/DP ranks %d/%d", c.Rank(), mpGroup.Rank(), dpGroup.Rank())
		}
		// Sum rank ids across the MP group: consecutive blocks.
		x := []float32{float32(c.Rank())}
		mpGroup.AllReduce(x)
		sums[c.Rank()] = x[0]
	})
	// Ranks 0,1,2 sum to 3; ranks 3,4,5 sum to 12.
	for r := 0; r < world; r++ {
		want := float32(3)
		if r >= mpSize {
			want = 12
		}
		if sums[r] != want {
			t.Errorf("rank %d: MP-group sum %v, want %v", r, sums[r], want)
		}
	}
}

// Nested splits: splitting a subgroup works in the subgroup's coordinates
// — a 2×2 grid derived in two steps matches the direct MP/DP groups.
func TestSplitNested(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		half, err := c.Split(c.Rank()/4, c.Rank()) // two halves of 4
		if err != nil {
			t.Error(err)
			return
		}
		pair, err := half.Split(half.Rank()/2, half.Rank()) // pairs within the half
		if err != nil {
			t.Error(err)
			return
		}
		if pair.Size() != 2 {
			t.Errorf("rank %d: nested group size %d", c.Rank(), pair.Size())
		}
		x := []float32{float32(c.Rank())}
		pair.AllReduce(x)
		partner := c.Rank() ^ 1
		if x[0] != float32(c.Rank()+partner) {
			t.Errorf("rank %d: pair sum %v, want %d", c.Rank(), x[0], c.Rank()+partner)
		}
	})
}

// Group collectives must stay race-clean and correct with three named
// streams active on every rank at the same time (run under -race): the
// hierarchical composition on the grad stream, a flat gather on the
// prefetch stream, a subgroup all-reduce on the checkpoint stream, and a
// default-domain subgroup collective from the main goroutine — four
// ordering domains concurrently in flight.
func TestGroupCollectivesWithThreeStreamsActive(t *testing.T) {
	const n, nodeSize, elems = 8, 4, 512
	grad := make([][]float32, n)
	gather := make([][]float32, n)
	ckpt := make([][]float32, n)
	main := make([][]float32, n)
	for i := 0; i < n; i++ {
		grad[i] = make([]float32, elems)
		gather[i] = make([]float32, elems)
		ckpt[i] = make([]float32, elems)
		main[i] = make([]float32, elems)
		for j := 0; j < elems; j++ {
			grad[i][j] = float32(i + 1)
			gather[i][j] = float32(100 + i)
			ckpt[i][j] = float32(i + 1)
			main[i][j] = float32(i + 1)
		}
	}
	parts := Partition(elems, n)
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		s := NewScheduler(c)
		defer s.Close()
		h1 := s.Stream("grad").AllReduceHierarchical(F16Buf(grad[c.Rank()]), nodeSize)
		h2 := s.Stream("prefetch").AllGather(F32Buf(gather[c.Rank()]), parts)
		// Checkpoint stream: a node-subgroup all-reduce submitted as a raw
		// op (subgroups are derived from the stream's comm inside the op).
		h3 := s.Stream("checkpoint").Submit(func(sc *Comm) {
			topo, err := sc.NodeTopology(nodeSize)
			if err != nil {
				panic(err)
			}
			topo.Intra.AllReduce(ckpt[sc.GlobalRank()])
		})
		// Default domain, main goroutine: inter-node subgroup all-reduce
		// while all three streams are in flight.
		topo, err := c.NodeTopology(nodeSize)
		if err != nil {
			t.Error(err)
			return
		}
		topo.Inter.AllReduce(main[c.Rank()])
		h1.Wait()
		h2.Wait()
		h3.Wait()
	})
	wantAll := float32(n * (n + 1) / 2) // 36
	for r := 0; r < n; r++ {
		if grad[r][0] != wantAll || grad[r][elems-1] != wantAll {
			t.Errorf("rank %d: hierarchical grad sum %v, want %v", r, grad[r][0], wantAll)
		}
		// Gather: element j holds the owner's value 100+owner.
		for j, p := range parts {
			if gather[r][p.Lo] != float32(100+j) {
				t.Errorf("rank %d: gather elem %d = %v, want %v", r, p.Lo, gather[r][p.Lo], 100+j)
			}
		}
		node := r / nodeSize
		wantIntra := float32(0)
		for i := 0; i < nodeSize; i++ {
			wantIntra += float32(node*nodeSize + i + 1)
		}
		if ckpt[r][0] != wantIntra {
			t.Errorf("rank %d: intra-node checkpoint sum %v, want %v", r, ckpt[r][0], wantIntra)
		}
		slot := r % nodeSize
		wantInter := float32(0)
		for m := 0; m < n/nodeSize; m++ {
			wantInter += float32(m*nodeSize + slot + 1)
		}
		if main[r][0] != wantInter {
			t.Errorf("rank %d: inter-node sum %v, want %v", r, main[r][0], wantInter)
		}
	}
}

// Uneven edge cases for the hierarchical partition forms: buffers shorter
// than the group size (empty owned ranges) and ragged partitions must
// reduce and gather exactly like the flat ring.
func TestHierarchicalUnevenPartitions(t *testing.T) {
	for _, size := range []int{1, 3, 7, 11} {
		const n, nodeSize = 8, 2
		r := rand.New(rand.NewSource(int64(size)))
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
			if err := c.AllGatherHierarchical(F32Buf(x), parts, nodeSize); err != nil {
				t.Error(err)
				return
			}
			if !approxEqual(x, want, 1e-3) {
				t.Errorf("size %d rank %d: uneven hierarchical sum mismatch", size, c.Rank())
			}
		})
	}
}
