package zero

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// Snapshot is a training checkpoint, and the only one: the clock, loss
// scaler and geometry of the capturing world, plus its slabs. Slab r is
// what rank r's CaptureShard returned: its partition comm.Partition(
// NumParams, WorldSize)[r] of the fp32 master parameters, then of each
// optimizer state tensor (State() order), then — when AccumMicros > 0 — of
// the gradient accumulator. The slabs in rank order are ZELC's payload
// (zelc.go). No rank ever holds the state Ψ-wide: a file is written by
// every rank at once, each its own slab at its offset (WriteSnapshotFile,
// SaveFile), with no slab on the wire; Save gathers the slabs to rank 0 for
// in-memory use, WriteTo streams them, and Load at any world size copies
// its own domain out of the slabs that overlap it.
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

	// AccumMicros counts the micro-batch gradients in the slabs'
	// accumulator: 0, and no accumulator, on a boundary (Save's captures).
	AccumMicros int

	Slabs [][]float32 // one per capturing rank, rank order
}

// Boundaries returns the accumulation boundaries the captured run has
// passed, stepped or overflow-skipped: the clock a resumed run continues
// from, and the count of global batches it consumed.
func (s *Snapshot) Boundaries() int { return s.OptSteps + s.Skips }

// Save gathers this world's partitioned training state to rank 0 and
// returns the snapshot there, for in-memory use (a file is SaveFile's);
// other ranks return nil. Every rank must call Save collectively: it is
// CaptureShard and a Gather of the slabs on the default domain, rank 0's
// own slab heading the snapshot as it is. Save must be called on an
// accumulation boundary (right after Update); it panics if
// micro-gradients are pending in the accumulator.
func (t *Trainer) Save() *Snapshot {
	if t.accumMicros != 0 {
		panic("zero: Save mid-accumulation (call on an Update boundary)")
	}
	slab, hdr := t.CaptureShard(nil)
	if t.c.Rank() != 0 {
		t.c.Gather(slab, 0, nil)
		return nil
	}
	hdr.Slabs = make([][]float32, t.c.Size())
	t.c.Gather(nil, 0, hdr.Slabs) // the root's own slab needs no copy
	hdr.Slabs[0] = slab
	return &hdr
}

// SaveFile writes this world's training state to path as the ZELC file
// WriteTo would write for it, each rank its partition straight out of its
// live state, through WriteSnapshotFile, whose results it returns. Every
// rank must call it collectively; like CaptureShard it is legal
// mid-accumulation.
func (t *Trainer) SaveFile(path string) (int64, error) {
	src, hdr := t.ownedSlab()
	return WriteSnapshotFile(t.c, path, hdr, src...)
}

// Load restores a snapshot into this rank: the master parameters, the
// optimizer state and the accumulator over its domain and, when both carry
// one, the loss scaler; the next Forward gathers the rest. Every rank must
// receive the same snapshot; Load only copies out of it, so the ranks of
// one process can share a single read-only *Snapshot, whatever world size
// captured it (ZeRO elasticity). The optimizer kind must match the one
// that wrote it. Every check runs before the first write, so a rejected
// snapshot leaves the trainer as it was.
func (t *Trainer) Load(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("zero: Load of nil snapshot")
	}
	if s.NumParams != t.Model.NumParams() {
		return fmt.Errorf("zero: snapshot has %d params, model has %d", s.NumParams, t.Model.NumParams())
	}
	parts, k, err := s.layout()
	if err != nil {
		return err
	}
	state := t.opt.State()
	dst := append([][]float32{t.master}, state...)
	if s.AccumMicros > 0 {
		dst = append(dst, t.accum)
	}
	if k != len(dst) {
		return fmt.Errorf("zero: snapshot slabs carry %d tensors, this trainer restores %d (different optimizer kind?)", k, len(dst))
	}
	for j, d := range dst {
		s.read(d, parts, j, t.dom.Lo)
	}
	t.opt.Restore(state, s.OptSteps) // the tensors are in place; this sets the clock
	t.publish()
	if t.scaler != nil && s.LossScale > 0 {
		t.scaler.Restore(s.LossScale, s.CleanSteps, s.Skips)
		t.Model.LossScale = float32(s.LossScale)
	}
	if s.AccumMicros == 0 {
		tensor.Zero(t.accum)
	}
	t.accumMicros = s.AccumMicros
	return nil
}

// Regroup returns the snapshot as a world of m ranks would have captured
// it: the same header and floats, re-tiled into comm.Partition(NumParams,
// m) slabs backed by one buffer. N→M→N reproduces the slabs exactly.
func (s *Snapshot) Regroup(m int) (*Snapshot, error) {
	if m <= 0 {
		return nil, fmt.Errorf("zero: regroup for %d ranks", m)
	}
	parts, k, err := s.layout()
	if err != nil {
		return nil, err
	}
	out := *s
	out.WorldSize = m
	to := comm.Partition(s.NumParams, m)
	out.Slabs = tile(make([]float32, k*s.NumParams), to, k)
	for q, p := range to {
		for j := range k {
			s.read(out.Slabs[q][j*p.Len():(j+1)*p.Len()], parts, j, p.Lo)
		}
	}
	return &out, nil
}

// CaptureShard appends this rank's slab — its owned partition of the
// training state, laid out [params | optimizer tensors… | accumulator?] — to
// dst, growing it at most once, to fit exactly (a warmed capture into a
// reused dst allocates no floats), and returns it with the capture's header:
// a Snapshot with the clock, loss scaler and geometry but no slabs. Unlike
// Save it is a pure local copy — no collectives — so capturing is legal at
// any point, including mid-accumulation (the accumulator rides along when
// AccumMicros > 0), and never perturbs the stream schedule. At stage 0 the
// state is replicated, but each rank still captures only its partition —
// the replicas are bitwise identical, so the world's slabs tile the state.
func (t *Trainer) CaptureShard(dst []float32) ([]float32, Snapshot) {
	src, hdr := t.ownedSlab()
	if n := len(dst) + len(src)*len(src[0]); cap(dst) < n {
		dst = append(make([]float32, 0, n), dst...)
	}
	for _, x := range src {
		dst = append(dst, x...)
	}
	return dst, hdr
}

// ownedSlab returns this rank's slab in pieces — its partition of the master
// parameters, of each optimizer tensor and, mid-accumulation, of the
// accumulator — and the capture's header.
func (t *Trainer) ownedSlab() ([][]float32, Snapshot) {
	lo, hi := t.local(t.Owned())
	src := append([][]float32{t.master}, t.opt.State()...)
	if t.accumMicros > 0 {
		src = append(src, t.accum)
	}
	for j := range src {
		src[j] = src[j][lo:hi]
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
	return src, hdr
}

// layout checks the header and slabs against each other and returns the
// partition the slabs follow and the tensors each carries: params, the
// optimizer's, and the accumulator when AccumMicros > 0.
func (s *Snapshot) layout() ([]comm.Range, int, error) {
	if err := s.checkHeader(len(s.Slabs)); err != nil {
		return nil, 0, err
	}
	parts := comm.Partition(s.NumParams, s.WorldSize)
	k := len(s.Slabs[0]) / parts[0].Len() // rank 0's partition is never empty
	for r, p := range parts {
		if len(s.Slabs[r]) != k*p.Len() || k < 1+min(s.AccumMicros, 1) {
			return nil, 0, fmt.Errorf("zero: rank %d slab has %d floats, not %d tensors of its %d params", r, len(s.Slabs[r]), k, p.Len())
		}
	}
	return parts, k, nil
}

// checkHeader checks the scalar fields, and that the world they name has
// the slabs given.
func (s *Snapshot) checkHeader(slabs int) error {
	if s.WorldSize <= 0 || s.NumParams <= 0 || s.OptSteps < 0 || s.AccumMicros < 0 ||
		!scalerValid(s.LossScale, s.CleanSteps, s.Skips) || slabs != s.WorldSize {
		return fmt.Errorf("zero: snapshot header out of range (world size %d with %d slabs, params %d, steps %d, micros %d, loss scale %g, clean steps %d, skips %d)",
			s.WorldSize, slabs, s.NumParams, s.OptSteps, s.AccumMicros, s.LossScale, s.CleanSteps, s.Skips)
	}
	return nil
}

// read copies tensor j's range [lo, lo+len(dst)) out of the slabs that
// overlap it; parts is the partition the slabs follow (layout's).
func (s *Snapshot) read(dst []float32, parts []comm.Range, j, lo int) {
	hi := lo + len(dst)
	a := sort.Search(len(parts), func(r int) bool { return parts[r].Hi > lo })
	b := a + sort.Search(len(parts)-a, func(r int) bool { return parts[a+r].Lo >= hi })
	for r, in := range intersect(parts[a:b], lo, hi) {
		p := parts[a+r]
		off := j*p.Len() - p.Lo // the slab holds tensor j's element i at off+i
		tensor.Copy(dst[in.Lo-lo:in.Hi-lo], s.Slabs[a+r][off+in.Lo:off+in.Hi])
	}
}

// tile cuts buf into one slab per range of parts, k tensors each, in order.
func tile(buf []float32, parts []comm.Range, k int) [][]float32 {
	slabs := make([][]float32, len(parts))
	for r, p := range parts {
		slabs[r], buf = buf[:k*p.Len():k*p.Len()], buf[k*p.Len():]
	}
	return slabs
}
