package zero

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/tensor"
)

// Stream names of the trainer's ordering domains. Every rank creates the
// same names in the same order, which (with identical per-stream submission
// order) is what makes the overlapped schedules pair deterministically
// across ranks.
const (
	// StreamGrad carries gradient reduce-scatters, and at stage 0 the
	// all-gathers that complete them into all-reduces.
	StreamGrad = "grad"
	// StreamPrefetch carries the parameter all-gathers of stages 1-3,
	// pipelined ahead of the layer group that needs them (§7.2.2).
	StreamPrefetch = "prefetch"
	// StreamCheckpoint is the conventional name for ZeRO-R Pa checkpoint
	// stores (NewPartitionedStore), so activation gathers never share an
	// ordering domain with gradient or prefetch traffic.
	StreamCheckpoint = "checkpoint"
)

// Options configures a ZeRO-DP trainer rank.
type Options struct {
	// Stage selects how much model state is partitioned: StageDDP (0,
	// everything replicated — the baseline run through the same code
	// path), StageOS (1, Pos), StageOSGrad (2, Pos+g) or StageFull
	// (3, Pos+g+p).
	Stage Stage
	Seed  int64
	// BucketElems is the gradient communication bucket size in elements
	// (the CB optimization applied to gradient collectives): each gradient
	// unit's (model.Layout.Units) gradients are reduced in fixed-size
	// partition-aligned buckets, mimicking how ZeRO buckets gradients as
	// they become available during backward (§5.2). 0 reduces each unit in
	// one bucket.
	BucketElems int
	// Overlap decides where gradient bucket handles are waited. Backward
	// always submits each gradient unit's buckets to the grad stream as
	// soon as the unit's gradients are final (§7.2). With Overlap the
	// handles are held until the unit's gradient window is released (when
	// the unit two later in Backward's order binds it, or at the end of
	// Backward), so the reduce-scatters ride under the remaining backward
	// compute; without it each handle is waited where it is submitted. The
	// ops and their order are the same either way, so results are bitwise
	// identical; only wall-clock changes. Composes with an
	// activation-checkpoint Model.Store: Pa's gathers ride their own
	// checkpoint stream, so the two ordering domains interleave freely on
	// the wire.
	Overlap bool
	// NodeSize lays the world out as nodes of NodeSize ranks: New builds
	// the trainer's scheduler over c.Nodes(NodeSize), so every gradient and
	// parameter collective on its streams runs two-level (intra-node phase
	// + inter-node phase, §2.3/§7's reason DP survives the node uplink) and
	// only ~1/NodeSize of each bucket crosses nodes — measured under the
	// "hier-intra"/"hier-inter" keys of comm.Stats.PerGroup. 0, 1 or the
	// world size mean flat routing; any other size the world does not tile
	// into is comm.ErrTopology from New. Schedules on the same layout are
	// bitwise identical to each other; across layouts the reduction tree
	// (and therefore the float rounding) differs.
	NodeSize int
	// Prefetch sets the window of the parameter all-gathers of stages 1-3,
	// which run layer group by layer group on the prefetch stream, each
	// group's handle waited at its entry — §7.2.2's schedule, "spread across
	// the entire forward propagation". With Prefetch the window is one
	// group: the next group's gather is already on the wire while the
	// current one computes. Without it the window is 0 and each group is
	// gathered where it is needed. Gathers move bits, never sum them, so
	// both windows are bitwise identical. No-op at stage 0.
	Prefetch bool
	// Optimizer selects and parameterizes the optimizer the rank runs over
	// its partition (Adam, momentum SGD or LAMB — §2.3's optimizer family,
	// all of whose state partitions identically); its LR is the run's one
	// learning rate. The zero Kind means Adam. LAMB trust ratios are
	// computed over full tensors from partition-ordered partial norms (one
	// extra 2·#tensors-float all-gather per boundary), so the update stays
	// bitwise identical across stages.
	Optimizer optimizer.Spec
	// FP16Compute is mixed-precision training (§3.1): activations and the
	// parameters the kernels read are stored in 2-byte binary16
	// (model.SetFP16Compute) with fp32 accumulation inside the half
	// kernels, and dynamic loss scaling guards the gradient stream —
	// overflowing steps are skipped by a group-wide vote so every rank
	// backs the scale off together. The fp32 master of the optimizer domain
	// is then a buffer of its own, which the optimizer steps and the owner
	// encodes into its half shard once per step; every parameter
	// all-gather moves those halves into half-width parameter windows, and
	// no rank holds fp32 parameters outside its master. Gradients are
	// rounded through binary16 before their reduce-scatter, and every
	// collective is accounted at 2 bytes per element. Composes with
	// Checkpoint and a Model.Store.
	FP16Compute bool
	// InitialLossScale overrides the dynamic loss scaler's starting scale
	// under FP16Compute (0 = the conventional 2^16).
	InitialLossScale float64
	// LossScaleWindow overrides how many clean steps double the loss scale
	// under FP16Compute (0 = the conventional 1000).
	LossScaleWindow int
	// ClipNorm caps the global gradient L2 norm before the optimizer step
	// (0 disables). The norm of the *partitioned* gradient is computed
	// with one extra N-element all-gather of per-shard partial sums — the
	// collective pattern DeepSpeed uses for ZeRO gradient clipping.
	ClipNorm float64
	// Checkpoint enables activation checkpointing in the wrapped model.
	// Setting Model.Store after New routes the checkpoints through a
	// CheckpointStore (Pa / Pa+cpu from ZeRO-R); a PartitionedStore runs on
	// the trainer's Scheduler().Stream(StreamCheckpoint).
	Checkpoint bool
}

// Trainer is one rank of a ZeRO-powered data-parallel job. The same type
// implements every stage — 0 (baseline DDP), 1 (Pos), 2 (Pos+g) and
// 3 (Pos+g+p); the stage decides which states stay resident per rank and
// which collective schedule runs. Stage 0 is the degenerate case: the
// partition still exists, but every rank runs the optimizer over the full
// buffer and the gradient reduce-scatter is completed into an all-reduce by
// a gradient all-gather.
//
// New fixes everything a step reads, so no phase re-derives it. The
// optimizer steps one fp32 master over its domain — the rank's own
// partition (§5.1's Pos), or all of Ψ at stage 0 — whatever precision the
// kernels read. The rank's compute shard is the master in fp32, and under
// FP16Compute a half buffer the owner encodes the master into after each
// step. New initializes only the domain (model.InitParams) and the shard
// encoded from it; the first Forward gathers the rest.
//
// The kernels read parameters through windows, one per layer group
// (model.BindParams), at the compute width. Stages 0-2 hold one Ψ-long
// compute copy that every group's window is a range of, and of which the
// master (in fp32) and the shard are the domain's range. Stage 3 holds no
// Ψ-long parameter buffer (§5.3): like the gradients, the parameters live
// in four windows fixed at New — the embeddings' and ln_f's, each held for
// a whole pass, and two the blocks take turns in — and each group's gather
// fills its window from the owners' shards just before the group's compute
// and hands it to the model, which reads nothing else.
//
// At stages 1-3 a rank trusts only its shard of the compute copy after New,
// Load and Update (and, at stage 3, from the start of each Backward): the
// trainer then unbinds every group's window, and the next gather binds the
// group again, so a read nothing gathered panics, naming the group. Stages
// 1-2 are stage 3's path without the per-pass re-gathers.
//
// No rank holds a Ψ-long gradient (§5.2, with §6.2's constant-size
// buffers): Backward writes each gradient unit (model.Layout.Units, a third
// of a block) into a window of the unit's size, reduces it from there,
// folds the optimizer domain's share into the accumulator and releases the
// window for a later unit. The windows are fixed at New — the embeddings'
// and the final layernorm's, each bound for the whole pass, and two the
// block units take turns in — so the gradient state a rank keeps is the
// Ψ/Nd accumulator (Ψ at stage 0) plus W = 4·(|embeddings| + |ln_f| +
// 2·max|unit|) bytes (perfmodel.LiveModelState).
//
// Model state per rank, with dom the domain's length and Wp the bytes of
// the stage-3 parameter windows (|embeddings| + |ln_f| + min(2, L)·
// max|block| elements at the compute width): stages 0-2 hold 4Ψ + 12·dom +
// W in fp32 (compute copy with the master in it, accumulator, Adam's m
// and v) and 2Ψ + 16·dom + W under FP16Compute; stage 3 holds 16·dom + W +
// Wp in fp32 and 18·dom + W + Wp under FP16Compute. The fp16 widths map
// onto §3.1's 2 + 2 + 12 bytes a parameter as follows: 2 is the half
// shard (the fp16 parameters; Wp is the gathered part in use), 2 is the
// fp16 gradient, which here is rounded through binary16 in fp32 windows
// and summed into a 4-byte accumulator, and 12 is the fp32 master with
// Adam's two moments.
//
// The trainer's bulk collectives flow through the streams of one scheduler
// over the rank's node layout: gradient traffic on StreamGrad, parameter
// gathers on StreamPrefetch. The N-float partial gathers (clip,
// LAMB norms, the fp16 overflow vote) run flat on the rank's own
// communicator, the default domain, where they never queue behind a
// bucket. Every configuration submits the same ops in the same order;
// Overlap and Prefetch only decide where a Handle is waited.
type Trainer struct {
	Model *model.Model

	// LastGradNorm is the global gradient norm observed by the most
	// recent Update when ClipNorm is enabled (pre-clipping).
	LastGradNorm float64

	c     *comm.Comm
	opts  Options
	stage Stage

	// Dynamic loss scaling state (FP16Compute): scaler drives the scale,
	// overflow latches any fp16-store overflow seen since the last vote.
	scaler   *optimizer.LossScaler
	overflow bool

	parts  []comm.Range        // global Ψ/Nd partition; parts[rank] is owned
	dom    comm.Range          // optimizer domain: parts[rank], or all of Ψ at stage 0
	norms  comm.Range          // ranks whose norm partials this rank computes: all at stage 0, itself otherwise
	opt    optimizer.Optimizer // optimizer over dom
	lamb   *optimizer.LAMB     // opt when it is LAMB, whose trust ratios span shards
	master []float32           // fp32 master over dom: in fp32 at stages 0-2 the domain's range of full, else a buffer of its own
	shard  comm.Buffer         // the compute copy over dom: the master in fp32, the halves publish encodes it into under FP16Compute; at stages 0-2 a range of full
	full   comm.Buffer         // stages 0-2: the Ψ-long compute copy every group's parameter window is a range of; empty at stage 3
	stale  bool                // only the shard is current: every parameter window is unbound until a gather fills it
	groups []model.Segment     // layer groups indexed by layer+1: gather and parameter window granularity
	units  []model.Segment     // gradient units (model.Layout.Units): bucket and gradient window granularity

	// The windows: gwins hold gradients at every stage, two the block units
	// take turns in, then ln_f's and the embeddings' (see window); pwins
	// hold the parameters at stage 3 (nil at stages 0-2), indexed by slot:
	// block l's at l mod 2, then ln_f's and the embeddings'. ln_f's and the
	// embeddings' are each bound for a whole pass (the head reads and
	// writes both first, the embedding lookup writes the embeddings' last).
	gwins []gradWindow
	pwins []paramWindow
	// Test seams: onRelease sees each gradient window as it is released,
	// onHandOver the part of a parameter window outside keep that a gather
	// is about to fill (tests poison both), and a gather dropGather
	// reports true for never runs.
	onRelease  func(unit int, buf []float32)
	onHandOver func(group int, buf comm.Buffer, keep comm.Range)
	dropGather func(group int) bool

	// accum is the persistent gradient accumulator over the optimizer
	// domain: Ψ/Nd elements at the partitioned stages, Ψ at stage 0 where
	// gradients are replicated anyway. Backward folds each micro-batch's
	// reduce-scattered gradient into it as the buckets complete, so
	// gradient accumulation never holds more than the partition across
	// micro-batch boundaries (§5.2); Update consumes and re-zeroes it.
	accum       []float32
	accumMicros int // micro-batches folded into accum since the last Update

	sched    *comm.Scheduler // over the rank's node layout (Options.NodeSize)
	grad     *comm.Stream    // gradient ordering domain
	prefetch *comm.Stream    // parameter gather ordering domain (nil at stage 0)

	// Steady-state scratch, preallocated at construction so step k≥2 of a
	// warmed trainer allocates nothing: the bucket plan holds the gradient
	// schedule and its per-bucket ownership partitions; the prefetchers and
	// hook closures persist across steps; the clip and LAMB buffers hold the
	// small collective payloads.
	plan           bucketPlan      // gradient bucket schedule
	fwdPf          paramPrefetcher // forward gathers (stages 1-3)
	bwdPf          paramPrefetcher // stage-3 backward gathers
	fwdHook        func(int)       // persistent Model.ForwardHook body (stages 1-3)
	clipPartials   []float32       // N-element clip partial buffer
	clipParts      []comm.Range    // its one-element-per-rank partition
	lambUpdate     []float32       // LAMB raw update over the optimizer domain
	lambPartials   []float32       // partition-ordered 2·#tensors·N norm partials
	lambParts      []comm.Range    // their all-gather partition
	lambWP, lambUP []float32       // per-rank partial folds of one segment
}

// bucketPlan is the gradient communication schedule, built once in New:
// each bucket's ownership partition clipped to the bucket and rebased onto
// its gradient unit's window, plus the plan indices each unit submits when
// it closes, in reduction order, indexed like Trainer.units.
type bucketPlan struct {
	parts  [][]comm.Range
	byUnit [][]int
}

// gradWindow is a gradient buffer that serves one gradient unit at a time.
type gradWindow struct {
	buf  []float32   // sized for the largest unit it serves
	unit int         // the bound unit (an index of Trainer.units), or -1
	b    comm.Buffer // the bound unit's slice of buf at the wire width
	last comm.Handle // the unit's last bucket op, when Overlap holds it
}

// paramWindow is a stage-3 parameter buffer that serves one layer group at
// a time, at the compute width.
type paramWindow struct {
	buf   comm.Buffer // sized for the largest group it serves
	group int         // the group last handed it (an index of Trainer.groups), or -1
	kept  int         // the group whose own part buf holds since the last publish, or -1
}

// New constructs a rank's trainer. Every rank must use identical cfg and
// Options so the replicas agree on layout, initialization and stream
// schedule. Construction performs no communication.
//
// Invalid configurations — an unknown stage, or a NodeSize the world size
// does not tile into (comm.ErrTopology) — are reported here, before any
// collective is in flight, instead of panicking mid-step.
func New(c *comm.Comm, cfg model.Config, opts Options) (*Trainer, error) {
	if !opts.Stage.Valid() {
		return nil, fmt.Errorf("zero: unknown stage %v (want StageDDP..StageFull)", opts.Stage)
	}
	laidOut := c
	if opts.NodeSize != 0 {
		var err error
		if laidOut, err = c.Nodes(opts.NodeSize); err != nil {
			return nil, fmt.Errorf("zero: topology: %w", err)
		}
	}
	m := model.NewWindowed(cfg)
	m.Checkpoint = opts.Checkpoint
	n, size, rank := m.NumParams(), c.Size(), c.Rank()
	parts := comm.Partition(n, size)
	dom, norms := parts[rank], comm.Range{Lo: rank, Hi: rank + 1}
	if opts.Stage == StageDDP {
		// Replicated optimizer state, so every partition's partials are local.
		dom, norms = comm.Range{Lo: 0, Hi: n}, comm.Range{Lo: 0, Hi: size}
	}
	opt, err := optimizer.New(opts.Optimizer, dom.Len())
	if err != nil {
		return nil, fmt.Errorf("zero: %w", err)
	}
	sched := comm.NewScheduler(laidOut)
	t := &Trainer{
		Model:        m,
		c:            c,
		opts:         opts,
		stage:        opts.Stage,
		parts:        parts,
		dom:          dom,
		norms:        norms,
		opt:          opt,
		groups:       m.Layout.LayerSegments(cfg.Layers),
		units:        m.Layout.Units,
		accum:        make([]float32, dom.Len()),
		sched:        sched,
		grad:         sched.Stream(StreamGrad),
		clipPartials: make([]float32, size),
		clipParts:    comm.Partition(size, size),
	}
	if opts.FP16Compute {
		m.SetFP16Compute(true)
		t.scaler = optimizer.NewLossScaler()
		if opts.InitialLossScale > 0 {
			t.scaler.Scale = opts.InitialLossScale
		}
		if opts.LossScaleWindow > 0 {
			t.scaler.GrowthInterval = opts.LossScaleWindow
		}
		m.LossScale = float32(t.scaler.Scale)
	}
	if l, ok := opt.(*optimizer.LAMB); ok {
		stride := 2 * len(m.Layout.Segments)
		t.lamb = l
		t.lambUpdate = make([]float32, dom.Len())
		t.lambPartials = make([]float32, stride*size)
		t.lambParts = comm.Partition(stride*size, size)
		t.lambWP = make([]float32, size)
		t.lambUP = make([]float32, size)
	}
	t.plan = t.buildPlan()
	layers, g := cfg.Layers, t.groups
	// Window sizes (every block is laid out alike): for the gradients the
	// two the block units share, sized for block 0's largest unit, then
	// ln_f's and the embeddings'; for the parameters, by slot.
	unit, block := max(t.units[1].Len(), t.units[2].Len(), t.units[3].Len()), g[1].Len()
	t.gwins = make([]gradWindow, 4)
	for i, n := range []int{unit, unit, g[layers+1].Len(), g[0].Len()} {
		t.gwins[i] = gradWindow{buf: make([]float32, n), unit: -1}
	}
	t.initParams(append([]int{block, block}[:min(2, layers)], g[layers+1].Len(), g[0].Len()))
	m.UnitPreHook, m.UnitHook = t.bindGrad, t.submitUnit
	if opts.Stage == StageDDP {
		for k := range g {
			t.bindParams(k, t.full.Slice(g[k].Lo, g[k].Hi))
		}
		return t, nil
	}
	// Forward gathers in layout order: embeddings, blocks 0..L-1, ln_f.
	t.prefetch = sched.Stream(StreamPrefetch)
	order := make([]int, 0, layers+2)
	for k := range g {
		order = append(order, k)
	}
	t.fwdPf.init(t, order)
	t.fwdHook = func(layer int) { t.fwdPf.arrive(layer + 1) }
	if opts.Stage == StageFull {
		// Backward gathers the head's embeddings and ln_f first, then blocks
		// L-1..0.
		order = append(order[:0], 0, layers+1)
		for l := layers; l >= 1; l-- {
			order = append(order, l)
		}
		t.bwdPf.init(t, order)
		m.BackwardPreHook = t.backwardPre
	}
	return t, nil
}

// initParams allocates the fp32 master, the compute shard and the
// parameter windows (sizes by slot, used at stage 3), writes the seeded
// initial parameters over the optimizer domain into the master and
// publishes them. No other parameter is written: at stages 1-3 the first
// Forward gathers them.
func (t *Trainer) initParams(sizes []int) {
	n, dom := t.Model.NumParams(), t.dom
	fp16, full := t.opts.FP16Compute, t.stage != StageFull
	newBuf := func(n int) comm.Buffer {
		if fp16 {
			return comm.HalfBuf(tensor.NewHalfBuffer(n))
		}
		return comm.F32Buf(make([]float32, n))
	}
	if full {
		t.full = newBuf(n)
	}
	if full && !fp16 {
		t.master = t.full.Data[dom.Lo:dom.Hi]
	} else {
		t.master = make([]float32, dom.Len())
	}
	model.InitParams(t.Model.Cfg, t.opts.Seed, dom.Lo, t.master)
	switch {
	case !fp16:
		t.shard = comm.F32Buf(t.master)
	case full:
		t.shard = t.full.Slice(dom.Lo, dom.Hi)
	default:
		t.shard = newBuf(dom.Len())
	}
	if !full {
		t.pwins = make([]paramWindow, len(sizes))
		for i, n := range sizes {
			t.pwins[i] = paramWindow{buf: newBuf(n), group: -1}
		}
	}
	t.publish()
}

// bindParams hands layer group g's parameter window b to the model.
func (t *Trainer) bindParams(g int, b comm.Buffer) {
	t.Model.BindParams(g, b.Data, b.Half)
}

// markStale records that only the shard is current and unbinds every
// group's parameter window: nothing may read one before the next gather
// fills it.
func (t *Trainer) markStale() {
	t.stale = true
	for g := range t.groups {
		t.Model.BindParams(g, nil, nil)
	}
	for i := range t.pwins {
		t.pwins[i].group = -1
	}
}

// backwardPre is the stage-3 Model.BackwardPreHook body: it gathers the
// parameters the next backward segment reads.
func (t *Trainer) backwardPre(layer int) {
	layers := t.Model.Cfg.Layers
	if layer < layers {
		t.bwdPf.arrive(layers + 1 - layer)
		return
	}
	// The head reads the embeddings and the final layernorm (positions 0
	// and 1) at once, so both gathers go on the wire before either is
	// waited.
	t.bwdPf.submit(0)
	t.bwdPf.submit(1)
	t.bwdPf.arrive(0)
	t.bwdPf.arrive(1)
}

// bindGrad is the Model.UnitPreHook body: it releases whatever unit u's
// window holds — a block unit's window last held unit u+2, the older of
// the two in use — then zeroes the window at u's length and binds it to u.
// Gradients cross the wire at the compute copy's width.
func (t *Trainer) bindGrad(u int) {
	w := t.window(u)
	t.releaseGrad(w)
	buf := w.buf[:t.units[u].Len()]
	tensor.Zero(buf)
	w.unit, w.b = u, comm.Buffer{Data: buf, DType: t.shard.DType}
	t.Model.BindGrad(u, buf)
}

// releaseGrad waits the bound unit's bucket ops, folds its reduced gradient
// over the optimizer domain into the accumulator — elementwise, so each
// element sees the same accum + g as a Ψ-wide fold — and frees w. A free
// window is left as it is.
func (t *Trainer) releaseGrad(w *gradWindow) {
	if w.unit < 0 {
		return
	}
	w.last.Wait()
	g, buf := t.units[w.unit], w.b.Data
	if lo, hi := max(g.Lo, t.dom.Lo), min(g.Hi, t.dom.Hi); lo < hi {
		tensor.Add(t.accum[lo-t.dom.Lo:hi-t.dom.Lo], buf[lo-g.Lo:hi-g.Lo])
	}
	t.Model.BindGrad(w.unit, nil)
	if t.onRelease != nil {
		t.onRelease(w.unit, buf)
	}
	w.unit, w.b, w.last = -1, comm.Buffer{}, comm.Handle{}
}

// window returns the gradient window that serves unit u: the block units
// alternate between the first two by index parity, then come ln_f's and
// the embeddings' — the order Backward releases what is still bound, the
// embeddings' buckets last as they were submitted last.
func (t *Trainer) window(u int) *gradWindow {
	switch u {
	case 0:
		return &t.gwins[3]
	case len(t.units) - 1:
		return &t.gwins[2]
	}
	return &t.gwins[u%2]
}

// slot returns the index of the parameter window that serves layer group
// g: l mod the block-window count for block l, then ln_f's and the
// embeddings'.
func (t *Trainer) slot(g int) int {
	blocks := len(t.pwins) - 2
	switch g {
	case 0:
		return blocks + 1
	case len(t.groups) - 1:
		return blocks
	}
	return (g - 1) % blocks
}

// Stage returns the trainer's configured ZeRO-DP stage.
func (t *Trainer) Stage() Stage { return t.stage }

// Comm returns the trainer's communicator (fault injection, elastic
// snapshot plumbing). It must only be used from the rank's own goroutine.
func (t *Trainer) Comm() *comm.Comm { return t.c }

// Owned returns this rank's partition of the flat parameter space.
func (t *Trainer) Owned() comm.Range { return t.parts[t.c.Rank()] }

// Scheduler returns the trainer's stream scheduler, built over the rank's
// node layout. Other components of the rank share its ordering domains
// through it (a Pa store on StreamCheckpoint, elastic snapshots), and
// harness code uses it as a quiesce point (Scheduler.Barrier) before
// reading or resetting World stats mid-run; after Step returns, the
// streams are already drained.
func (t *Trainer) Scheduler() *comm.Scheduler { return t.sched }

// Close releases the trainer's stream workers and its model workspace, so
// two sequential trainers in one process never double-resident their
// scratch. Safe to call more than once.
func (t *Trainer) Close() {
	t.sched.Close()
	t.Model.ReleaseWorkspace()
}

// GatheredParams returns a Ψ-long copy of the parameters the compute
// reads — under FP16Compute the fp32 image of the halves — running the
// forward gathers first when only the owned shard is current (a collective
// then: every rank calls it at the same point). At stage 3 it always
// gathers, group by group through the parameter windows, and the copy is
// the one Ψ-long parameter buffer a stage-3 rank ever allocates: it is for
// harness code (examples, elastic tests) that compares trajectories across
// stages, not for a training loop.
func (t *Trainer) GatheredParams() []float32 {
	if t.pwins == nil {
		if t.stale {
			t.fwdPf.reset()
			for k := range t.fwdPf.slots {
				t.fwdPf.arrive(k)
			}
			t.stale = false
		}
		if h := t.full.Half; h != nil {
			return h.Floats()
		}
		return append([]float32(nil), t.full.Data...)
	}
	out := make([]float32, t.Model.NumParams())
	t.fwdPf.reset()
	for k, s := range t.fwdPf.slots {
		t.fwdPf.arrive(k)
		g := t.groups[s.group]
		if h := s.buf.Half; h != nil {
			h.ToFloats(out[g.Lo:g.Hi])
		} else {
			copy(out[g.Lo:g.Hi], s.buf.Data)
		}
	}
	t.markStale()
	return out
}

// paramPrefetcher runs one pass's layer-group parameter all-gathers on the
// prefetch stream (§7.2.2). arrive(k) makes group k resident — submitting
// its gather if it is not on the wire yet, then waiting it — and submits
// the next window groups' gathers, which ride the wire while group k
// computes. Window 1 is the Prefetch pipeline; window 0 gathers each group
// where it is needed. Every rank walks the same order with the same window,
// so the per-stream submission order is identical across ranks (the
// determinism contract), and gathers only move bits, so both windows give
// the same bits.
//
// A prefetcher is constructed once per trainer (forward and backward each
// own one) and reset per pass: the per-group gather slots and the handles
// persist, so a steady-state pass submits its gathers without allocating.
type paramPrefetcher struct {
	t       *Trainer
	slots   []gatherSlot
	handles []comm.Handle
	window  int
}

// gatherSlot is one layer group's parameter gather, fixed at New.
type gatherSlot struct {
	group int
	win   *paramWindow // stage 3: the window the group is gathered into; nil at stages 1-2
	buf   comm.Buffer  // the group's range of its window: what the gather fills and the model reads
	parts []comm.Range // the group's ownership partition, rebased onto buf
	// Stage 3: the rank's own part of the group, which the gather does not
	// move: copied from the shard (src) into buf (dst) first.
	src, dst comm.Buffer
}

// init precomputes the gather slots of the groups in order (indices of
// t.groups) and the handles.
func (p *paramPrefetcher) init(t *Trainer, order []int) {
	p.t = t
	p.slots = make([]gatherSlot, len(order))
	rank := t.c.Rank()
	for i, k := range order {
		g, s := t.groups[k], &p.slots[i]
		s.group = k
		s.parts = intersect(t.parts, g.Lo, g.Hi)
		if own := s.parts[rank]; t.pwins == nil {
			s.buf = t.full.Slice(g.Lo, g.Hi)
		} else {
			s.win = &t.pwins[t.slot(k)]
			s.buf = s.win.buf.Slice(0, g.Len())
			if own.Lo < own.Hi {
				s.src = t.shard.Slice(own.Lo-t.dom.Lo, own.Hi-t.dom.Lo)
				s.dst = s.buf.Slice(own.Lo-g.Lo, own.Hi-g.Lo)
			}
		}
		for r := range s.parts {
			s.parts[r].Lo -= g.Lo
			s.parts[r].Hi -= g.Lo
		}
	}
	p.handles = make([]comm.Handle, len(order))
	if t.opts.Prefetch {
		p.window = 1
	}
}

// reset clears the launch state for a new pass.
func (p *paramPrefetcher) reset() {
	for i := range p.handles {
		p.handles[i] = comm.Handle{}
	}
}

// submit launches the all-gather for position k if it exists and has not
// been launched yet. At stage 3 it first hands the window over: the group
// it served is unbound, and the rank's own part is copied in from the
// shard unless the window still holds it — it last held this group and no
// publish has run since.
func (p *paramPrefetcher) submit(k int) {
	t := p.t
	if k < 0 || k >= len(p.handles) || p.handles[k].Valid() {
		return
	}
	s := &p.slots[k]
	if t.dropGather != nil && t.dropGather(s.group) {
		return
	}
	if w := s.win; w == nil {
		if t.onHandOver != nil {
			t.onHandOver(s.group, s.buf, s.parts[t.c.Rank()])
		}
	} else {
		if w.group >= 0 {
			t.Model.BindParams(w.group, nil, nil)
		}
		w.group = s.group
		var keep comm.Range
		if w.kept == s.group {
			keep = s.parts[t.c.Rank()]
		}
		if t.onHandOver != nil {
			t.onHandOver(s.group, w.buf, keep)
		}
		if w.kept != s.group {
			copy(s.dst.Data, s.src.Data)
			copy(s.dst.Half, s.src.Half)
			w.kept = s.group
		}
	}
	p.handles[k] = t.prefetch.AllGather(s.buf, s.parts)
}

// arrive blocks until position k's parameters are resident, binds them to
// the model, and keeps the next window groups' gathers in flight.
func (p *paramPrefetcher) arrive(k int) {
	p.submit(k)
	if h := p.handles[k]; h.Valid() {
		h.Wait()
		p.t.bindParams(p.slots[k].group, p.slots[k].buf)
	}
	for d := 1; d <= p.window; d++ {
		p.submit(k + d)
	}
}

// intersect clips the global partition to [lo,hi), producing a per-rank
// partition of that window (possibly with empty ranges).
func intersect(parts []comm.Range, lo, hi int) []comm.Range {
	out := make([]comm.Range, len(parts))
	for i, p := range parts {
		l, h := max(p.Lo, lo), min(p.Hi, hi)
		if l > h {
			l, h = lo, lo // normalize empty
		}
		out[i] = comm.Range{Lo: l, Hi: h}
	}
	return out
}

// Step runs one ZeRO-DP training step on this rank's shard of the global
// batch and returns the local loss. It is the one-micro-batch composition
// of the three-phase lifecycle — Forward, Backward, Update — and is bitwise
// identical to calling the phases explicitly with a single micro-batch per
// update.
func (t *Trainer) Step(ids, targets []int, globalBatch int) float64 {
	loss := t.Forward(ids, targets, globalBatch)
	t.Backward()
	t.Update()
	return loss
}

// Forward runs the forward pass of one micro-batch (microBatch rows across
// the whole data-parallel group; this rank computes its 1/Nd shard) and
// returns the local loss. When only the owned shard is current, it gathers
// each layer group's parameters as its compute begins, in the order Loss
// touches them: embeddings, blocks 0..L-1, final layernorm (the tied head
// re-reads the embeddings). The cross-micro-batch state lives in the
// partitioned accumulator that Backward maintains.
func (t *Trainer) Forward(ids, targets []int, microBatch int) float64 {
	shardIDs, shardTargets, per := model.ShardBatch(ids, targets, microBatch, t.c.Size(), t.c.Rank())
	if t.stale {
		t.fwdPf.reset()
		t.Model.ForwardHook = t.fwdHook
		t.stale = false
	}
	loss := t.Model.Loss(shardIDs, shardTargets, per)
	t.Model.ForwardHook = nil
	return loss
}

// Backward runs the backward pass of the micro-batch last seen by Forward
// and folds its gradient into the rank's persistent accumulator. Each
// gradient unit is written into a freshly zeroed window; as it becomes
// final, its buckets are reduce-scattered across the group on the grad
// stream (§7.2), and only the reduced values over the optimizer domain are
// folded into the accumulator before the window serves another unit. At
// the partitioned stages that domain is the owned Ψ/Nd shard, so gradient
// accumulation across micro-batches never holds more than the partition
// (§5.2). Stage 3 gathers each group's parameters again as its backward
// begins: the head's embeddings and final layernorm first, then blocks
// L-1..0.
func (t *Trainer) Backward() {
	// Stage 3: parameters are "discarded once used" after forward (§5.3) —
	// the rank stops trusting the unowned range, and the backward pass
	// gathers each group again before reading it (the second Ψ of §7.2.2).
	if t.stage == StageFull {
		t.markStale()
	}
	t.bwdPf.reset()
	t.Model.Backward() // through the hooks New set: backwardPre, bindGrad, submitUnit
	// Fold the windows still bound into the accumulator. The first
	// micro-batch adds into zeros, so a single-micro-batch update sees the
	// reduced gradient bit for bit.
	for i := range t.gwins {
		t.releaseGrad(&t.gwins[i])
	}
	// Latch any fp16-store overflow this micro-batch raised; the group
	// votes on the accumulated flag at the next Update.
	if t.opts.FP16Compute && t.Model.TakeOverflow() {
		t.overflow = true
	}
	t.accumMicros++
}

// Update consumes the accumulated gradient — the optimizer-step phase that
// fires on the accumulation boundary. It averages the accumulator over
// ranks × micro-batches, applies global gradient clipping, runs the
// configured optimizer over this rank's domain, and re-zeroes the
// accumulator; §7.2.1's parameter all-gather runs in the next Forward.
// Panics if no Backward has run since the last Update.
func (t *Trainer) Update() {
	if t.accumMicros == 0 {
		panic("zero: Update without an accumulated Backward")
	}

	// Dynamic loss scaling (the scaler exists under FP16Compute): the group
	// votes on overflow before anything else touches the accumulator, so
	// every rank skips — or steps — together with an identical stream
	// schedule.
	if t.scaler != nil && t.voteOverflow() {
		t.skipStep()
		return
	}

	// Average over the group and the accumulation window. Micro-batch
	// losses are means over 1/k of the rows, so the accumulated sum is
	// k·N times the global-batch mean gradient. The loss-scale unscale
	// folds into the same multiply.
	inv := 1 / float32(t.c.Size()*t.accumMicros)
	if t.scaler != nil {
		inv = float32(1 / (float64(t.c.Size()*t.accumMicros) * t.scaler.Scale))
	}
	tensor.Scale(t.accum, inv)

	// Global gradient clipping over the partition-ordered partial Σg²:
	// every rank folds the same partials in the same order, so the stages
	// agree bit for bit.
	if t.opts.ClipNorm > 0 {
		partials := t.clipPartials
		for r := t.norms.Lo; r < t.norms.Hi; r++ {
			lo, hi := t.local(t.parts[r])
			partials[r] = optimizer.PartialSquaredSum(t.accum[lo:hi])
		}
		t.gatherPartials(partials, t.clipParts)
		norm := optimizer.GlobalGradNorm(partials)
		t.LastGradNorm = norm
		tensor.Scale(t.accum, optimizer.ClipScale(norm, t.opts.ClipNorm))
	}

	// Optimizer step over the fp32 master (Pos, §5.1). LAMB steps with
	// per-tensor trust ratio blocks clipped to the domain.
	if t.lamb != nil {
		t.stepLAMB()
	} else {
		t.opt.Step(t.master, t.accum)
	}
	t.publish()

	// Successful step: grow the loss scale on schedule.
	if t.scaler != nil {
		t.scaler.Update(false)
		t.Model.LossScale = float32(t.scaler.Scale)
	}

	tensor.Zero(t.accum)
	t.accumMicros = 0
}

// voteOverflow agrees group-wide on whether any rank's fp16 stores
// overflowed during the accumulation window. Overflow is data-dependent
// per rank (each rank backpropagates its own micro-batch slice), so even
// stage 0 must vote: a single-rank skip would fork the replicas. The
// N-float exchange runs on the default domain like gradient clipping does.
func (t *Trainer) voteOverflow() bool {
	partials := t.clipPartials
	var f float32
	if t.overflow {
		f = 1
	}
	partials[t.c.Rank()] = f
	t.c.AllGather(partials, t.clipParts)
	t.overflow = false
	for _, v := range partials {
		if v != 0 {
			return true
		}
	}
	return false
}

// skipStep abandons an overflowed accumulation window: no clip, no
// optimizer step, no parameter exchange — every rank backs the loss scale
// off by the same factor and re-zeroes its accumulator, so the replicas
// stay bitwise identical through the skip. The compute copy is as current
// as Backward left it.
func (t *Trainer) skipStep() {
	t.scaler.Update(true)
	t.Model.LossScale = float32(t.scaler.Scale)
	tensor.Zero(t.accum)
	t.accumMicros = 0
}

// publish writes the master into the shard, which at stages 1-3 leaves
// only the shard current. In fp32 the master is the shard; under
// FP16Compute the owner's one round-to-nearest-even encode is the fp16
// rounding.
func (t *Trainer) publish() {
	if h := t.shard.Half; h != nil {
		h.FromFloats(t.master)
	}
	for i := range t.pwins {
		t.pwins[i].kept = -1
	}
	if t.stage != StageDDP {
		t.markStale()
	}
}

// LossScale returns the current dynamic loss scale, or 0 when the fp16
// compute path is off.
func (t *Trainer) LossScale() float64 {
	if t.scaler == nil {
		return 0
	}
	return t.scaler.Scale
}

// OverflowSteps counts the optimizer steps skipped due to fp16 overflow
// since the trainer was built.
func (t *Trainer) OverflowSteps() int {
	if t.scaler == nil {
		return 0
	}
	return t.scaler.Skips()
}

// ResidentBytes reports the model-state bytes this rank holds, summed from
// the live buffers (len × element width): the parameter windows (the
// Ψ-long compute copy at stages 0-2), the gradient windows, the
// accumulator, the fp32 master and the half shard where they are buffers
// of their own rather than ranges of the compute copy, and the optimizer's
// state and update buffers. perfmodel.ModelStateBytes is the §3.1 closed
// form it is compared with.
func (t *Trainer) ResidentBytes() int64 {
	n := t.paramWindowBytes() + 4*int64(len(t.accum)+len(t.lambUpdate))
	for _, w := range t.gwins {
		n += 4 * int64(len(w.buf))
	}
	if t.full.Data == nil { // else the master is the domain's range of the fp32 compute copy
		n += 4 * int64(len(t.master))
	}
	if t.pwins != nil { // a stage-3 half shard is a buffer of its own (an fp32 one is the master)
		n += 2 * int64(len(t.shard.Half))
	}
	for _, st := range t.opt.State() {
		n += 4 * int64(len(st))
	}
	return n
}

// ComputeResidencyBytes reports the bytes the step computation keeps
// resident: the retained workspace plus the parameter windows the kernels
// read, 2 bytes an element under FP16Compute (the fp32 master shard then
// counts as optimizer state, §3.1).
func (t *Trainer) ComputeResidencyBytes() int64 {
	return t.Model.WorkspaceBytes() + t.paramWindowBytes()
}

// paramWindowBytes sums the parameter windows: the compute copy at stages
// 0-2, the four stage-3 windows otherwise.
func (t *Trainer) paramWindowBytes() int64 {
	n := t.full.Bytes()
	for _, w := range t.pwins {
		n += w.buf.Bytes()
	}
	return n
}

// local rebases a range of the flat parameter space onto the optimizer
// domain's buffers (the master, the accumulator, LAMB's update).
func (t *Trainer) local(r comm.Range) (lo, hi int) { return r.Lo - t.dom.Lo, r.Hi - t.dom.Lo }

// gatherPartials exchanges the norm partials each rank computed for its
// own partition. At stage 0 every rank computed them all. The few floats
// are latency bound, so they run on the default domain, where they never
// queue behind bucket traffic on the grad stream; gathers move bits, so
// the route does not change the result.
func (t *Trainer) gatherPartials(partials []float32, parts []comm.Range) {
	if t.stage != StageDDP {
		t.c.AllGather(partials, parts)
	}
}

// stepLAMB applies a LAMB update to the master whose per-tensor trust
// ratios are computed over FULL tensors at every stage: the partials Σw²/Σu²
// of each partition's overlap with every tensor cross the wire once (an
// all-gather of 2·#tensors floats per rank), and every rank folds them in
// partition order — the same arithmetic gradient clipping uses, which is
// what keeps LAMB bitwise identical across stages even though its blocks
// span shard boundaries.
func (t *Trainer) stepLAMB() {
	params, update := t.master, t.lambUpdate
	t.lamb.PrepareUpdate(params, t.accum, update)
	segs := t.Model.Layout.Segments
	n, stride := t.c.Size(), 2*len(segs)

	// clip returns the overlap of segment s with range p, rebased onto the
	// master.
	clip := func(s model.Segment, p comm.Range) (lo, hi int) {
		lo, hi = t.local(comm.Range{Lo: max(s.Lo, p.Lo), Hi: min(s.Hi, p.Hi)})
		if lo >= hi {
			return 0, 0
		}
		return lo, hi
	}
	// Only the segments overlapping a partition are written; every other
	// slot must be zero for the partition-ordered norm folds.
	partials := t.lambPartials
	tensor.Zero(partials)
	for r := t.norms.Lo; r < t.norms.Hi; r++ {
		for s, seg := range segs {
			if lo, hi := clip(seg, t.parts[r]); lo != hi {
				partials[r*stride+2*s] = optimizer.PartialSquaredSum(params[lo:hi])
				partials[r*stride+2*s+1] = optimizer.PartialSquaredSum(update[lo:hi])
			}
		}
	}
	t.gatherPartials(partials, t.lambParts)

	wp, up := t.lambWP, t.lambUP
	for s, seg := range segs {
		for r := 0; r < n; r++ {
			wp[r] = partials[r*stride+2*s]
			up[r] = partials[r*stride+2*s+1]
		}
		trust := optimizer.TrustRatio(optimizer.GlobalGradNorm(wp), optimizer.GlobalGradNorm(up))
		if lo, hi := clip(seg, t.dom); lo != hi {
			t.lamb.ApplyBlock(params, update, lo, hi, trust)
		}
	}
}

// AccumulatedMicros reports how many micro-batch gradients are currently
// folded into the accumulator (0 right after an Update).
func (t *Trainer) AccumulatedMicros() int { return t.accumMicros }

// GradAccumElems returns the element count of the persistent gradient
// accumulator: the §5.2 memory claim made measurable — Ψ/Nd at the
// partitioned stages regardless of how many micro-batches accumulate, Ψ
// only at stage 0 where every state is replicated anyway.
func (t *Trainer) GradAccumElems() int { return len(t.accum) }

// buildPlan builds the gradient bucket plan: each gradient unit split into
// BucketElems-sized windows in reverse, plus each bucket's ownership
// partition and the per-unit submission indices, so steady-state steps
// replay the schedule without rebuilding it.
func (t *Trainer) buildPlan() bucketPlan {
	p := bucketPlan{byUnit: make([][]int, len(t.units))}
	for u, g := range t.units {
		for _, b := range t.unitBuckets(g) {
			parts := intersect(t.parts, b.Lo, b.Hi)
			for r := range parts {
				parts[r].Lo -= g.Lo
				parts[r].Hi -= g.Lo
			}
			p.byUnit[u] = append(p.byUnit[u], len(p.parts))
			p.parts = append(p.parts, parts)
		}
	}
	return p
}

// unitBuckets splits one gradient unit into bucket windows, last window
// first (mirroring backward-order bucket fills inside a unit).
func (t *Trainer) unitBuckets(g model.Segment) []comm.Range {
	bucket := t.opts.BucketElems
	if bucket <= 0 || bucket >= g.Len() {
		return []comm.Range{{Lo: g.Lo, Hi: g.Hi}}
	}
	var out []comm.Range
	for hi := g.Hi; hi > g.Lo; hi -= bucket {
		out = append(out, comm.Range{Lo: max(hi-bucket, g.Lo), Hi: hi})
	}
	return out
}

// reduceBucketAt submits plan bucket i's collectives on its unit's window
// b to the grad stream and returns the handle of the final op: a
// reduce-scatter across the global partition, completed into an all-reduce
// by a gradient all-gather at stage 0. The bucket's per-rank ownership comes
// from intersecting the global partition, so the elementwise reduction
// order — and therefore the bits — is independent of bucket framing and of
// where the window sits; on a node layout both ops run two-level with the
// same ownership layout.
func (t *Trainer) reduceBucketAt(i int, b comm.Buffer) comm.Handle {
	parts := t.plan.parts[i]
	h := t.grad.ReduceScatter(b, parts)
	if t.stage == StageDDP {
		h = t.grad.AllGather(b, parts) // FIFO after the reduce-scatter
	}
	return h
}

// submitUnit is the Model.UnitHook body: it submits unit u's buckets in
// plan order, on its gradient window. Overlap holds the last handle until
// the window is released, so the reduce-scatter of unit u rides under the
// compute of the next two units (§7.2's communication/computation overlap;
// the grad stream completes in FIFO order); otherwise each handle is
// waited where it is submitted. Under FP16Compute the unit's gradients are
// rounded through binary16 for the wire first, and the rounding feeds
// overflow detection: a loss-scaled weight gradient can exceed the fp16
// range even when every activation store stayed finite.
func (t *Trainer) submitUnit(u int) {
	w := t.window(u)
	if t.opts.FP16Compute && tensor.RoundHalfCheck(w.b.Data) {
		t.overflow = true
	}
	for _, i := range t.plan.byUnit[u] {
		h := t.reduceBucketAt(i, w.b)
		if t.opts.Overlap {
			w.last = h
		} else {
			h.Wait()
		}
	}
}
