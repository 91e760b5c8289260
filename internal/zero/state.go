package zero

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// Snapshot is a full training checkpoint, and the only one: parameters plus
// the optimizer state that ZeRO keeps partitioned across ranks, as flat
// NumParams-long buffers. Because every piece of state is an exact Ψ/N
// partition of a flat buffer, the consolidated form is world-size-agnostic
// by construction: Load at any world size slices its own partition out.
// Save gathers the shards to rank 0 (the "consolidated checkpoint"
// operation of ZeRO systems — under partitioning no single rank holds the
// whole optimizer state, so checkpointing is itself a collective); Encode
// and DecodeSnapshot (zelc.go) are its one serialized form.
type Snapshot struct {
	Stage     Stage
	WorldSize int // the capturing world; Load accepts any
	NumParams int
	OptSteps  int // boundaries that stepped the optimizer; Boundaries adds the skipped ones

	// The FP16Compute loss scaler: its scale, the clean steps since that
	// last changed, and the overflow skips. All zero in fp32.
	LossScale  float64
	CleanSteps int
	Skips      int

	Params []float32 // fp32 master parameters (full)
	// Opt holds the optimizer's state tensors, each NumParams long, in the
	// optimizer's State() order: momentum and variance for Adam/LAMB, the
	// single momentum buffer for SGD.
	Opt [][]float32

	// Accum carries the gradient accumulator when the snapshot was captured
	// mid-accumulation (AccumMicros > 0): the sum of AccumMicros
	// micro-batch gradients, full width. Boundary snapshots (Save) leave it
	// nil. Only the CaptureShard path produces mid-accumulation snapshots;
	// Load restores the accumulator so training resumes inside the same
	// accumulation window.
	Accum       []float32
	AccumMicros int
}

// Boundaries returns the accumulation boundaries the captured run has
// passed, stepped or overflow-skipped: the clock a resumed run continues
// from, and the count of global batches it consumed.
func (s *Snapshot) Boundaries() int { return s.OptSteps + s.Skips }

// Save gathers this world's partitioned training state to rank 0 and
// returns the snapshot there; other ranks return nil. Every rank must
// call Save collectively: it is CaptureShard, one Gather of the slabs and
// AssembleSnapshot on the root. Save must be called on an accumulation
// boundary (right after Update); it panics if micro-gradients are pending
// in the accumulator.
func (t *Trainer) Save() *Snapshot {
	if t.accumMicros != 0 {
		panic("zero: Save mid-accumulation (call on an Update boundary)")
	}
	const root = 0
	slab, hdr := t.CaptureShard(nil)
	if t.c.Rank() != root {
		t.c.Gather(slab, root, nil)
		return nil
	}
	slabs := make([][]float32, t.c.Size())
	t.c.Gather(slab, root, slabs)
	snap, err := AssembleSnapshot(hdr, slabs)
	if err != nil {
		panic(err) // the slabs are this world's own captures
	}
	return snap
}

// Load restores a snapshot into this rank: the master parameters, the
// optimizer state over its domain and, when both carry one, the loss
// scaler; the next Forward gathers the rest. Every rank must receive the same
// snapshot; Load only copies out of it, so the ranks of one process can
// share a single read-only *Snapshot. The snapshot's world size need not
// match: repartitioning happens naturally because the state is stored
// unpartitioned (ZeRO elasticity). The optimizer kind must match the one
// that wrote the snapshot (the state tensor count is checked).
func (t *Trainer) Load(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("zero: Load of nil snapshot")
	}
	if s.NumParams != t.Model.NumParams() {
		return fmt.Errorf("zero: snapshot has %d params, model has %d", s.NumParams, t.Model.NumParams())
	}
	if len(s.Opt) != len(t.opt.State()) {
		return fmt.Errorf("zero: snapshot has %d optimizer state tensors, optimizer expects %d (different optimizer kind?)",
			len(s.Opt), len(t.opt.State()))
	}
	dom := t.dom
	shards := make([][]float32, len(s.Opt))
	for i, full := range s.Opt {
		if len(full) != s.NumParams {
			return fmt.Errorf("zero: snapshot optimizer state %d has %d elems, want %d", i, len(full), s.NumParams)
		}
		shards[i] = full[dom.Lo:dom.Hi]
	}
	t.opt.Restore(shards, s.OptSteps)
	tensor.Copy(t.master, s.Params[dom.Lo:dom.Hi])
	t.publish()
	if t.scaler != nil && s.LossScale > 0 {
		t.scaler.Restore(s.LossScale, s.CleanSteps, s.Skips)
		t.Model.LossScale = float32(s.LossScale)
	}
	if s.AccumMicros > 0 {
		if len(s.Accum) != s.NumParams {
			return fmt.Errorf("zero: snapshot accumulator has %d elems, want %d", len(s.Accum), s.NumParams)
		}
		copy(t.accum, s.Accum[dom.Lo:dom.Hi])
		t.accumMicros = s.AccumMicros
	} else {
		tensor.Zero(t.accum)
		t.accumMicros = 0
	}
	return nil
}

// CaptureShard appends this rank's slab — its owned partition of the
// training state, laid out [params | optimizer tensors… | accumulator?] — to
// dst (reusing its capacity: a warmed capture allocates nothing) and returns
// it with the capture's header, a Snapshot carrying the clock, loss scaler
// and geometry but no buffers. Unlike Save it is a pure local copy — no
// collectives — so capturing is legal at any point, including
// mid-accumulation (the accumulator rides along when AccumMicros > 0), and
// never perturbs the stream schedule. The slabs of all ranks tile [0, NumParams):
// AssembleSnapshot turns a world of them into the full Snapshot. At stage 0
// the state is replicated, but each rank still captures only its partition
// slice — the replicas are bitwise identical, so the tiling reassembles the
// exact full state.
func (t *Trainer) CaptureShard(dst []float32) ([]float32, Snapshot) {
	lo, hi := t.local(t.Owned())
	dst = append(dst, t.master[lo:hi]...)
	for _, s := range t.opt.State() {
		dst = append(dst, s[lo:hi]...)
	}
	if t.accumMicros > 0 {
		dst = append(dst, t.accum[lo:hi]...)
	}
	hdr := Snapshot{
		Stage:       t.stage,
		WorldSize:   t.c.Size(),
		NumParams:   t.Model.NumParams(),
		OptSteps:    t.opt.Steps(),
		AccumMicros: t.accumMicros,
	}
	if t.scaler != nil {
		hdr.LossScale, hdr.CleanSteps, hdr.Skips = t.scaler.Scale, t.scaler.CleanSteps(), t.scaler.Skips()
	}
	return dst, hdr
}

// alloc gives s — so far a header — its zeroed flat buffers: Params, k
// optimizer tensors and, mid-accumulation, Accum. It returns them in slab
// (and ZELC payload) order.
func (s *Snapshot) alloc(k int) [][]float32 {
	s.Params = make([]float32, s.NumParams)
	s.Opt = make([][]float32, k)
	for i := range s.Opt {
		s.Opt[i] = make([]float32, s.NumParams)
	}
	if s.AccumMicros > 0 {
		s.Accum = make([]float32, s.NumParams)
	}
	return s.tensors()
}

// tensors returns the snapshot's flat buffers in slab (and ZELC payload)
// order.
func (s *Snapshot) tensors() [][]float32 {
	ts := append([][]float32{s.Params}, s.Opt...)
	if s.AccumMicros > 0 {
		ts = append(ts, s.Accum)
	}
	return ts
}

// AssembleSnapshot scatters one CaptureShard slab per rank (rank order) into
// the flat buffers of a full Snapshot; hdr is any rank's capture header from
// the same moment. The optimizer tensor count is read off the slab sizes.
func AssembleSnapshot(hdr Snapshot, slabs [][]float32) (*Snapshot, error) {
	total := 0
	for _, slab := range slabs {
		total += len(slab)
	}
	fixed := 1 // tensors every slab carries besides the optimizer's: params
	if hdr.AccumMicros > 0 {
		fixed = 2 // and the accumulator
	}
	if hdr.WorldSize != len(slabs) || hdr.NumParams <= 0 || total%hdr.NumParams != 0 || total/hdr.NumParams < fixed {
		return nil, fmt.Errorf("zero: %d slabs of %d floats do not assemble into a %d-rank snapshot of %d params",
			len(slabs), total, hdr.WorldSize, hdr.NumParams)
	}
	s := hdr
	ts := s.alloc(total/s.NumParams - fixed)
	for r, p := range comm.Partition(s.NumParams, len(slabs)) {
		slab := slabs[r]
		if len(slab) != len(ts)*p.Len() {
			return nil, fmt.Errorf("zero: rank %d slab has %d floats, its partition needs %d", r, len(slab), len(ts)*p.Len())
		}
		for _, t := range ts {
			slab = slab[copy(t[p.Lo:p.Hi], slab):]
		}
	}
	return &s, nil
}
