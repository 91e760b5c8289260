package comm

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

// halfPattern is the fp16 bit pattern rank owner contributes at element i:
// every class of value — normals, subnormals, ±0, ±Inf, NaN payloads — turns
// up, so "a gather moves bits" is checked on the bits that are easy to break.
func halfPattern(owner, i int) tensor.Half {
	return tensor.Half(uint32(owner+1)*40503 + uint32(i)*2654435761>>7)
}

// statsSince returns the traffic a rank recorded between two Stats reads. A
// rank's counters move only in its own send and receive calls, so reading
// them around an operation the rank waits for isolates that operation.
func statsSince(before, after Stats) Stats {
	d := Stats{
		ElemsSent: after.ElemsSent - before.ElemsSent, ElemsRecv: after.ElemsRecv - before.ElemsRecv,
		BytesSent: after.BytesSent - before.BytesSent, BytesRecv: after.BytesRecv - before.BytesRecv,
		Messages:  after.Messages - before.Messages,
		PerStream: map[string]int64{}, PerGroup: map[string]Traffic{},
	}
	for k, v := range after.PerStream {
		d.PerStream[k] = v - before.PerStream[k]
	}
	for k, v := range after.PerGroup {
		b := before.PerGroup[k]
		d.PerGroup[k] = Traffic{Elems: v.Elems - b.Elems, Bytes: v.Bytes - b.Bytes}
	}
	return d
}

// gatherTyped all-gathers a typed buffer on c, accounted at the buffer's
// wire width: the flat ring on a flat view, two levels on a laid-out one.
func gatherTyped(c *Comm, b Buffer, parts []Range) { c.withDType(b.DType).allGather(b, parts) }

// nodesOf lays c out in nodes of size members (Nodes), panicking on a
// layout the group does not tile into.
func nodesOf(c *Comm, size int) *Comm {
	lc, err := c.Nodes(size)
	if err != nil {
		panic(err)
	}
	return lc
}

// A half all-gather must land, bit for bit, where the float all-gather of the
// decoded images lands — and cost exactly what that gather is accounted at
// today under F16: same elements, bytes, messages, and per-stream and
// per-group splits on every rank. Flat and two-level, on the world (through
// a stream) and on a Split subgroup (directly), over
// partitions with ragged, empty and odd-length ranges, including windows that
// do not tile the buffer.
func TestHalfAllGatherMatchesFloatGather(t *testing.T) {
	const n = 8
	partitions := map[string]func(size int) []Range{
		"ragged-103": func(size int) []Range { return Partition(103, size) },
		"empty-3":    func(size int) []Range { return Partition(3, size) },
		"odd-window": func(size int) []Range { // odd lengths at odd offsets, gaps between them
			parts := make([]Range, size)
			for i := range parts {
				parts[i] = Range{Lo: 1 + 13*i, Hi: 1 + 13*i + 2*(i%3) + 1}
			}
			return parts
		},
	}
	const bufLen = 110

	// run gathers one buffer per rank on a fresh world and returns every
	// rank's result as float32 bit images, plus the gather's Stats per rank.
	run := func(half, onSplit bool, nodeSize int, mkParts func(int) []Range) ([][]uint32, []Stats) {
		out := make([][]uint32, n)
		stats := make([]Stats, n)
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			// g is the group gathered over; submit runs the gather on it —
			// directly on the Split subgroup, through a stream on the world.
			var g *Comm
			var submit func(fn func(*Comm))
			if onSplit {
				sub, err := c.Split(c.Rank()%2, c.Rank())
				if err != nil {
					t.Error(err)
					return
				}
				g = nodesOf(sub, nodeSize)
				submit = func(fn func(*Comm)) { fn(g) }
			} else {
				g = nodesOf(c, nodeSize)
				s := NewScheduler(g)
				defer s.Close()
				st := s.Stream("prefetch")
				submit = func(fn func(*Comm)) { st.Submit(fn).Wait() }
			}
			parts := mkParts(g.Size())
			h := tensor.NewHalfBuffer(bufLen)
			for i := range h {
				h[i] = 0x7e55 // a NaN payload nobody owns: must be overwritten or left alone
			}
			own := parts[g.Rank()]
			for i := own.Lo; i < own.Hi; i++ {
				h[i] = halfPattern(c.rank, i)
			}
			f := h.Floats()
			before := w.Stats(c.rank) // the Split exchange is not the gather's
			submit(func(sc *Comm) {
				if half {
					gatherTyped(sc, HalfBuf(h), parts)
				} else {
					gatherTyped(sc, F16Buf(f), parts)
				}
			})
			stats[c.rank] = statsSince(before, w.Stats(c.rank))
			if half {
				f = h.Floats()
			}
			bits := make([]uint32, len(f))
			for i, v := range f {
				bits[i] = math.Float32bits(v)
			}
			out[c.rank] = bits
		})
		return out, stats
	}

	for pname, mkParts := range partitions {
		for _, onSplit := range []bool{false, true} {
			nodeSizes := []int{1, 2, 4}
			if onSplit {
				nodeSizes = []int{1, 2} // four members per subgroup
			}
			for _, nodeSize := range nodeSizes {
				name := fmt.Sprintf("%s/split=%v/node=%d", pname, onSplit, nodeSize)
				gotBits, gotStats := run(true, onSplit, nodeSize, mkParts)
				wantBits, wantStats := run(false, onSplit, nodeSize, mkParts)
				for r := 0; r < n; r++ {
					if !reflect.DeepEqual(gotBits[r], wantBits[r]) {
						t.Errorf("%s rank %d: half gather differs from the float gather of the decoded images", name, r)
					}
					if !reflect.DeepEqual(gotStats[r], wantStats[r]) {
						t.Errorf("%s rank %d: half gather stats\n%+v\nfloat F16 gather stats\n%+v", name, r, gotStats[r], wantStats[r])
					}
				}
				if gotStats[0].BytesSent != 2*gotStats[0].ElemsSent {
					t.Errorf("%s: %d elems sent as %d bytes, want 2 B/elem", name, gotStats[0].ElemsSent, gotStats[0].BytesSent)
				}
			}
		}
	}
}

// A half buffer has nothing to sum: a stream's reductions refuse it where
// it is submitted, flat or two-level, before anything reaches the worker.
func TestHalfBufferRefusesReduction(t *testing.T) {
	for _, nodeSize := range []int{1, 2} {
		w := NewWorld(4)
		w.Run(func(c *Comm) {
			s := NewScheduler(nodesOf(c, nodeSize))
			defer s.Close()
			st := s.Stream("grad")
			for name, submit := range map[string]func(Buffer){
				"reduce-scatter": func(b Buffer) { st.ReduceScatter(b, Partition(8, 4)) },
				"all-reduce":     func(b Buffer) { st.AllReduce(b) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("node=%d rank %d: %s accepted a half buffer", nodeSize, c.Rank(), name)
						}
					}()
					submit(HalfBuf(tensor.NewHalfBuffer(8)))
				}()
			}
		})
	}
}

// A rank killed in the middle of a half all-gather — on the default domain
// and on a stream — must leave every survivor with a RankFailure, not a
// deadlock, and no goroutine (rank or stream worker) behind.
func TestHalfAllGatherRankKilled(t *testing.T) {
	const n, victim, elems = 4, 2, 64
	parts := Partition(elems, n)
	for _, streamed := range []bool{false, true} {
		before := runtime.NumGoroutine()
		w := NewWorld(n)
		// One gather is n-1 sends and n-1 receives per rank: die inside the third.
		w.FailRankAfterOps(victim, 2*2*(n-1)+2)
		errs := runFallibleWithTimeout(t, w, func(c *Comm) {
			h := tensor.NewHalfBuffer(elems)
			if !streamed {
				for step := 0; step < 10; step++ {
					gatherTyped(c, HalfBuf(h), parts)
				}
				return
			}
			s := NewScheduler(c)
			defer s.Close()
			st := s.Stream("prefetch")
			for step := 0; step < 10; step++ {
				st.AllGather(HalfBuf(h), parts).Wait()
			}
		})
		if k, ok := errorsAsKilled(errs[victim]); !ok || k.Rank != victim {
			t.Fatalf("streamed=%v: victim error = %v, want Killed{%d}", streamed, errs[victim], victim)
		}
		for r, err := range errs {
			var rf RankFailure
			if r != victim && !errors.As(err, &rf) {
				t.Errorf("streamed=%v: rank %d returned %v, want a RankFailure", streamed, r, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("streamed=%v: %d goroutines before the world, %d after it died", streamed, before, now)
		}
	}
}

// Half gathers share the wire pool and the scheduler with float traffic: a
// two-level half gather and a float reduction on two streams of a laid-out
// scheduler, a flat half gather on a third stream of a flat one, plus a
// default-domain half gather on the inter-node level from the main
// goroutine, all in flight at once (run under -race).
func TestHalfGatherWithThreeStreamsActive(t *testing.T) {
	const n, nodeSize, elems = 8, 4, 509
	parts := Partition(elems, n)
	sums := make([][]float32, n)
	hier := make([]tensor.HalfBuffer, n)
	flat := make([]tensor.HalfBuffer, n)
	inter := make([]tensor.HalfBuffer, n)
	for r := 0; r < n; r++ {
		sums[r] = make([]float32, elems)
		hier[r], flat[r], inter[r] = tensor.NewHalfBuffer(elems), tensor.NewHalfBuffer(elems), tensor.NewHalfBuffer(elems)
		for i := range sums[r] {
			sums[r][i] = float32(r + 1)
		}
		for i := parts[r].Lo; i < parts[r].Hi; i++ {
			hier[r][i], flat[r][i] = halfPattern(r, i), halfPattern(r+n, i)
		}
	}
	interParts := Partition(elems, n/nodeSize)
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		r := c.Rank()
		lc := nodesOf(c, nodeSize)
		s, sf := NewScheduler(lc), NewScheduler(c)
		defer s.Close()
		defer sf.Close()
		h1 := s.Stream("grad").AllReduce(F16Buf(sums[r]))
		h2 := s.Stream("prefetch").AllGather(HalfBuf(hier[r]), parts)
		h3 := sf.Stream("checkpoint").AllGather(HalfBuf(flat[r]), parts)
		interC := lc.nodes.inter[F16]
		own := interParts[interC.Rank()]
		for i := own.Lo; i < own.Hi; i++ {
			inter[r][i] = halfPattern(r/nodeSize, i)
		}
		gatherTyped(interC, HalfBuf(inter[r]), interParts)
		h1.Wait()
		h2.Wait()
		h3.Wait()
	})
	for r := 0; r < n; r++ {
		if want := float32(n * (n + 1) / 2); sums[r][0] != want || sums[r][elems-1] != want {
			t.Errorf("rank %d: float sum %v, want %v", r, sums[r][0], want)
		}
		for owner, p := range parts {
			for i := p.Lo; i < p.Hi; i++ {
				if hier[r][i] != halfPattern(owner, i) || flat[r][i] != halfPattern(owner+n, i) {
					t.Fatalf("rank %d elem %d: gathered %#04x/%#04x, owner %d sent %#04x/%#04x",
						r, i, hier[r][i], flat[r][i], owner, halfPattern(owner, i), halfPattern(owner+n, i))
				}
			}
		}
		for node, p := range interParts {
			for i := p.Lo; i < p.Hi; i++ {
				if inter[r][i] != halfPattern(node, i) {
					t.Fatalf("rank %d elem %d: inter-node gather %#04x, node %d sent %#04x", r, i, inter[r][i], node, halfPattern(node, i))
				}
			}
		}
	}
}
