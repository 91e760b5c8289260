package comm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// ringSum is what a ring reduce-scatter leaves in an element that member
// owner of a ring over vals owns: the chunk sets out from owner+1 and every
// member on the way adds its own value to the running sum, the owner last.
func ringSum(vals []float32, owner int) float32 {
	n := len(vals)
	acc := vals[(owner+1)%n]
	for j := 2; j <= n; j++ {
		acc = vals[(owner+j)%n] + acc
	}
	return acc
}

// levelSum is ringSum for the two-level reduce-scatter on nodes of nodeSize
// members: each node rings its partial sum onto the owner's slot, then the
// same-slot ring over nodes finishes it on the owner's node. nodeSize 1 (or
// len(vals)) is the flat ring.
func levelSum(vals []float32, owner, nodeSize int) float32 {
	partial := make([]float32, len(vals)/nodeSize)
	for m := range partial {
		partial[m] = ringSum(vals[m*nodeSize:(m+1)*nodeSize], owner%nodeSize)
	}
	return ringSum(partial, owner/nodeSize)
}

// hops is the traffic one member records in ring phases: messages (sends
// plus receives) and elements sent.
type hops struct{ msgs, elems int64 }

func (h hops) plus(o hops) hops { return hops{h.msgs + o.msgs, h.elems + o.elems} }

// ringHops counts the non-empty chunk hops of one flat ring phase at one
// member, which sends every chunk but skipSend and receives every chunk but
// skipRecv — and moves an empty chunk not at all.
func ringHops(parts []Range, skipSend, skipRecv int) hops {
	n := len(parts)
	var h hops
	for k, p := range parts {
		if p.Len() == 0 {
			continue
		}
		if k != (skipSend+n)%n {
			h.msgs++
			h.elems += int64(p.Len())
		}
		if k != (skipRecv+n)%n {
			h.msgs++
		}
	}
	return h
}

// A reduce-scatter member never sends the chunk it ends up owning and never
// receives the one it sets out (pos-1); an all-gather member never receives
// its own chunk and never sends the one its right neighbour owns.
func reduceScatterHops(parts []Range, pos int) hops { return ringHops(parts, pos, pos-1) }
func allGatherHops(parts []Range, pos int) hops     { return ringHops(parts, pos+1, pos) }

// levelHops composes a two-level pass at member pos from its flat phases:
// one intra-node ring per node block of parts, one inter-node ring over the
// ranges its slot owns in every node.
func levelHops(parts []Range, pos, nodeSize int, phase func([]Range, int) hops) hops {
	nodes := len(parts) / nodeSize
	slot := pos % nodeSize
	inter := make([]Range, nodes)
	var h hops
	for m := range inter {
		inter[m] = parts[m*nodeSize+slot]
		h = h.plus(phase(parts[m*nodeSize:(m+1)*nodeSize], slot))
	}
	return h.plus(phase(inter, pos/nodeSize))
}

// ringCase is one reduce-scatter → all-gather → half all-gather sequence.
type ringCase struct {
	inputs   [][]float32 // one buffer per member
	parts    []Range
	nodeSize int  // the group's node layout (Nodes); 1: the flat ring
	streamed bool // on a named stream rather than the default domain
}

// check runs c on a fresh world and holds every member to the sequential
// reference bit for bit — the reduced owned ranges after the reduce-scatter,
// every range after the gathers, untouched elements outside them — and its
// traffic to the non-empty chunk hops: messages, elements, and bytes at
// 4 B per float and 2 B per half.
func (rc ringCase) check(t *testing.T) {
	t.Helper()
	n, size := len(rc.inputs), len(rc.inputs[0])
	type result struct {
		reduced, gathered []float32
		halves            tensor.HalfBuffer
		rs, ag, ag16      Stats
	}
	res := make([]result, n)
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		r := c.Rank()
		lc := nodesOf(c, rc.nodeSize)
		run := func(fn func(*Comm)) { fn(lc) }
		if rc.streamed {
			s := NewScheduler(lc)
			defer s.Close()
			st := s.Stream("grad")
			run = func(fn func(*Comm)) { st.Submit(fn).Wait() }
		}
		phase := func(fn func(*Comm)) Stats {
			before := w.Stats(r)
			run(fn)
			return statsSince(before, w.Stats(r))
		}
		x := append([]float32(nil), rc.inputs[r]...)
		h := tensor.NewHalfBuffer(size)
		own := rc.parts[r]
		for i := own.Lo; i < own.Hi; i++ {
			h[i] = halfPattern(r, i)
		}
		res[r].rs = phase(func(sc *Comm) { sc.ReduceScatter(x, rc.parts) })
		res[r].reduced = append([]float32(nil), x...)
		res[r].ag = phase(func(sc *Comm) { sc.AllGather(x, rc.parts) })
		res[r].ag16 = phase(func(sc *Comm) { gatherTyped(sc, HalfBuf(h), rc.parts) })
		res[r].gathered, res[r].halves = x, h
	})

	owner := make([]int, size)
	for i := range owner {
		owner[i] = -1
	}
	for k, p := range rc.parts {
		for i := p.Lo; i < p.Hi; i++ {
			owner[i] = k
		}
	}
	vals := make([]float32, n)
	for i, o := range owner {
		for r := range vals {
			vals[r] = rc.inputs[r][i]
		}
		var want float32
		if o >= 0 {
			want = levelSum(vals, o, rc.nodeSize)
		}
		for r := 0; r < n; r++ {
			got := res[r].gathered[i]
			if o < 0 {
				want = rc.inputs[r][i]
			} else if r == o && math.Float32bits(res[r].reduced[i]) != math.Float32bits(want) {
				t.Fatalf("member %d elem %d: reduce-scatter left %v, ring-order sum %v", r, i, res[r].reduced[i], want)
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("member %d elem %d (owner %d): gathered %v, want %v", r, i, o, got, want)
			}
			if o >= 0 && res[r].halves[i] != halfPattern(o, i) {
				t.Fatalf("member %d elem %d: half gather %#04x, owner %d sent %#04x", r, i, res[r].halves[i], o, halfPattern(o, i))
			}
		}
	}

	var total int64
	for r := 0; r < n; r++ {
		for _, ph := range []struct {
			name  string
			got   Stats
			want  hops
			width int64
		}{
			{"reduce-scatter", res[r].rs, levelHops(rc.parts, r, rc.nodeSize, reduceScatterHops), 4},
			{"all-gather", res[r].ag, levelHops(rc.parts, r, rc.nodeSize, allGatherHops), 4},
			{"half all-gather", res[r].ag16, levelHops(rc.parts, r, rc.nodeSize, allGatherHops), 2},
		} {
			g := ph.got
			if g.Messages != ph.want.msgs || g.ElemsSent != ph.want.elems || g.BytesSent != ph.want.elems*ph.width {
				t.Errorf("member %d %s: %d messages, %d elems, %d bytes sent; want %d, %d, %d",
					r, ph.name, g.Messages, g.ElemsSent, g.BytesSent, ph.want.msgs, ph.want.elems, ph.want.elems*ph.width)
			}
			total += g.ElemsRecv - g.ElemsSent
		}
	}
	if total != 0 {
		t.Errorf("world received %d more elements than it sent", total)
	}
}

// clipParts is the partition of one bucket window the way zero builds it:
// parts clipped to [lo,hi), ranges outside the window emptied at lo. A
// window inside one member's shard leaves every other range empty.
func clipParts(parts []Range, lo, hi int) []Range {
	out := make([]Range, len(parts))
	for i, p := range parts {
		l, h := max(p.Lo, lo), min(p.Hi, hi)
		if l > h {
			l, h = lo, lo
		}
		out[i] = Range{Lo: l, Hi: h}
	}
	return out
}

// ringInputs draws n buffers of size values spread over many binades, so a
// sum in any order but the ring's rounds differently.
func ringInputs(r *rand.Rand, n, size int) [][]float32 {
	in := make([][]float32, n)
	for k := range in {
		in[k] = make([]float32, size)
		for i := range in[k] {
			in[k][i] = float32(r.NormFloat64() * math.Ldexp(1, r.Intn(24)-12))
		}
	}
	return in
}

// Ring collectives move only the chunks that carry elements. Over
// partitions with empty ranges — one-owner windows the way zero clips its
// buckets, a window across two owners, buffers shorter than the group —
// flat and two-level, on the default domain and on a stream: results are
// bitwise the ring-order reference, elements and bytes are the full
// Ψ(N-1)/N accounting, and messages are exactly the non-empty hops.
func TestRingSkipsEmptyChunks(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		const span = 11
		full := Partition(span*n, n)
		mid := full[n/2]
		partitions := []struct {
			name  string
			size  int
			parts []Range
		}{
			{"one-owner-window", span * n, clipParts(full, mid.Lo+2, mid.Hi-3)},
			{"two-owner-window", span * n, clipParts(full, mid.Lo-4, mid.Lo+5)},
			{"tiling", span * n, full},
			{"shorter-than-N", n - 1, Partition(n-1, n)},
			{"one-element", 1, Partition(1, n)},
		}
		nodeSizes := []int{1}
		for ns := 2; ns < n; ns *= 2 {
			if n%ns == 0 {
				nodeSizes = append(nodeSizes, ns)
			}
		}
		for _, p := range partitions {
			inputs := ringInputs(rand.New(rand.NewSource(int64(n))), n, p.size)
			for _, nodeSize := range nodeSizes {
				for _, streamed := range []bool{false, true} {
					t.Run(fmt.Sprintf("n=%d/%s/node=%d/streamed=%v", n, p.name, nodeSize, streamed), func(t *testing.T) {
						ringCase{inputs: inputs, parts: p.parts, nodeSize: nodeSize, streamed: streamed}.check(t)
					})
				}
			}
		}
	}
}

// AllReduce on buffers shorter than, or not a multiple of, the group splits
// evenly with empty trailing chunks, which cost no messages: a one-element
// all-reduce on 4 ranks records 12 messages across the world (3 hops per
// phase, each a send and a receive), not 48.
func TestAllReduceShortBufferMessages(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, size := range []int{0, 1, n - 1, n + 1, 3*n + 2} {
			for _, streamed := range []bool{false, true} {
				inputs := ringInputs(rand.New(rand.NewSource(int64(100*n+size))), n, size)
				out := make([][]float32, n)
				w := NewWorld(n)
				w.Run(func(c *Comm) {
					x := append([]float32(nil), inputs[c.Rank()]...)
					if streamed {
						s := NewScheduler(c)
						defer s.Close()
						s.Stream("grad").AllReduce(F32Buf(x)).Wait()
					} else {
						c.AllReduce(x)
					}
					out[c.Rank()] = x
				})
				parts := Partition(size, n)
				vals := make([]float32, n)
				var msgs int64
				for k, p := range parts {
					for i := p.Lo; i < p.Hi; i++ {
						for r := range vals {
							vals[r] = inputs[r][i]
						}
						want := ringSum(vals, k)
						for r := range out {
							if math.Float32bits(out[r][i]) != math.Float32bits(want) {
								t.Fatalf("n=%d size=%d rank %d elem %d: %v, ring-order sum %v", n, size, r, i, out[r][i], want)
							}
						}
					}
				}
				for r := 0; r < n; r++ {
					want := reduceScatterHops(parts, r).plus(allGatherHops(parts, r))
					st := w.Stats(r)
					if st.Messages != want.msgs || st.ElemsSent != want.elems || st.BytesSent != 4*want.elems {
						t.Errorf("n=%d size=%d streamed=%v rank %d: %d messages, %d elems, %d bytes; want %d, %d, %d",
							n, size, streamed, r, st.Messages, st.ElemsSent, st.BytesSent, want.msgs, want.elems, 4*want.elems)
					}
					msgs += st.Messages
				}
				if n == 4 && size == 1 && msgs != 12 {
					t.Errorf("one-element all-reduce on 4 ranks: %d messages across the world, want 12", msgs)
				}
			}
		}
	}
}

// Members that disagree on a buffer's length must fail loudly even though
// empty chunks are not sent: the ring stamp catches the first message that
// crosses the disagreement. A member that panics is failed, the way a
// crashing process would be, so the others unblock instead of hanging; no
// member may return normally.
func TestRingLengthMismatchPanics(t *testing.T) {
	for _, lens := range [][2]int{{1, 2}, {2, 1}} {
		w := NewWorld(2)
		outcome := make(chan string, 2)
		for rank := 0; rank < 2; rank++ {
			go func(rank int) {
				defer func() {
					switch r := recover(); {
					case r == nil:
						outcome <- "returned"
					case strings.Contains(fmt.Sprint(r), "ring chunk length mismatch"):
						w.failRank(rank)
						outcome <- "mismatch"
					default:
						if _, ok := asRankDeath(r); !ok {
							outcome <- fmt.Sprintf("unexpected panic: %v", r)
							return
						}
						outcome <- "peer died"
					}
				}()
				w.Comm(rank).AllReduce(make([]float32, lens[rank]))
			}(rank)
		}
		mismatches := 0
		for i := 0; i < 2; i++ {
			select {
			case o := <-outcome:
				switch o {
				case "mismatch":
					mismatches++
				case "peer died":
				default:
					t.Errorf("lengths %v: a member %s", lens, o)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("lengths %v: all-reduce hung instead of panicking", lens)
			}
		}
		if mismatches == 0 {
			t.Errorf("lengths %v: no member raised the chunk length mismatch", lens)
		}
	}
}

// FuzzRingPartitions draws a group of 2–8 members, a buffer, a random list
// of disjoint ranges with empty ones among them (in any member order, not
// necessarily tiling), a node width and a domain, and holds a reduce-scatter
// then all-gather to the ring-order reference bit for bit and to exactly
// the non-empty hops in messages.
func FuzzRingPartitions(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3))
	f.Add(int64(7), uint8(4), uint8(40))
	f.Add(int64(42), uint8(8), uint8(5))
	f.Add(int64(-3), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, sizeRaw uint8) {
		n := 2 + int(nRaw)%7
		size := int(sizeRaw) % 97
		r := rand.New(rand.NewSource(seed))
		// 2n cut points carve the buffer into n disjoint ranges handed to a
		// random permutation of members; about a third are emptied.
		cuts := make([]int, 2*n)
		for i := range cuts {
			cuts[i] = r.Intn(size + 1)
		}
		slices.Sort(cuts)
		parts := make([]Range, n)
		for i, k := range r.Perm(n) {
			p := Range{Lo: cuts[2*i], Hi: cuts[2*i+1]}
			if r.Intn(3) == 0 {
				p.Hi = p.Lo
			}
			parts[k] = p
		}
		var nodeSizes []int
		for ns := 1; ns <= n; ns++ {
			if n%ns == 0 {
				nodeSizes = append(nodeSizes, ns)
			}
		}
		ringCase{
			inputs:   ringInputs(r, n, size),
			parts:    parts,
			nodeSize: nodeSizes[r.Intn(len(nodeSizes))],
			streamed: r.Intn(2) == 0,
		}.check(t)
	})
}
