package experiments

import (
	"errors"

	"repro/internal/device"
	"repro/internal/perfmodel"
)

// Fig7 reproduces Figure 7: the maximum memory cached by the allocator
// ("max cache allocated", PyTorch's torch.cuda.max_memory_cached) during a
// training iteration of the 40B and 100B models under configurations C1-C5,
// measured by replaying each configuration's allocation trace against the
// simulated caching allocator in internal/device.
func Fig7() Table {
	const (
		mp = 16
		nd = 25 // 400 GPUs (Table 8)
	)
	models := []struct {
		label                 string
		layers, hidden, heads int
		batch                 int
	}{
		{"40B", 50, 8192, 32, 16},   // Table 8 row: 40B, 50 layers, h=8192, batch 16
		{"100B", 125, 8192, 64, 32}, // Table 8 row: 100B, 125 layers, h=8192, batch 32
	}
	var rows [][]string
	for _, m := range models {
		shape := perfmodel.GPT2Like(m.layers, m.hidden, m.heads)
		for _, c := range Configs {
			peak, err := simulateIterationPeak(shape, c, m.batch, mp, nd, int64(32*perfmodel.GB))
			cell := fmtF(peak/perfmodel.GB, 1)
			if err != nil {
				cell = "OOM"
			}
			rows = append(rows, []string{m.label, c.Name, cell})
		}
	}
	return Table{
		Title: "Figure 7: max cache allocated per GPU (GB), allocator-trace replay",
		Note: "Cached memory falls C1->C2 (Pa shrinks checkpoints); C4->C5 plateaus for\n" +
			"40B but falls for 100B, whose activations dominate (paper §10.5). Configs\n" +
			"whose trace cannot fit report OOM (consistent with Figure 6's max sizes).",
		Header: []string{"Model", "Config", "Max cached (GB)"},
		Rows:   rows,
	}
}

// simulateIterationPeak replays one training iteration's allocation
// sequence for a configuration on a fresh simulated device and returns the
// peak reserved ("cached") bytes. The trace follows §6.3's lifetime
// analysis: model states are allocated once and live forever; per layer the
// forward pass allocates short-lived working activations and a long-lived
// checkpoint (routed to an MD contiguous region, since every Table 3 config
// includes MD); the backward pass re-allocates working memory and transient
// gradient buffers; constant-size fused buffers (CB) come and go around the
// reduction.
func simulateIterationPeak(shape perfmodel.Shape, c CConfig, batch, mp, nd int, capacity int64) (float64, error) {
	d := device.New(capacity)

	// Persistent model states.
	states := int64(perfmodel.ModelStateBytes(shape.Params(), int(c.Stage), nd)) / int64(mp)
	if _, err := d.Alloc(states); err != nil {
		return 0, err
	}

	// MD region sized for all checkpoints of the iteration.
	ckptPerLayer := int64(2*batch*shape.Seq) * int64(shape.Hidden)
	if c.Pa {
		ckptPerLayer /= int64(mp)
	}
	if c.PaCPU {
		ckptPerLayer = 0
	}
	var region *device.Region
	if ckptPerLayer > 0 {
		var err error
		region, err = d.NewRegion(ckptPerLayer * int64(shape.Layers))
		if err != nil {
			return 0, err
		}
	}

	working := int64(12*batch*shape.Seq) * int64(shape.Hidden) * 2 / int64(mp)
	gradLayer := 2 * (shape.Params() / int64(shape.Layers)) / int64(mp) // fp16 per-layer grads

	// Forward.
	for l := 0; l < shape.Layers; l++ {
		wb, err := d.Alloc(working)
		if err != nil {
			return 0, err
		}
		if region != nil {
			if _, err := region.Alloc(ckptPerLayer); err != nil {
				return 0, err
			}
		}
		d.Free(wb)
	}

	// Backward: recompute working set + transient per-layer gradients.
	for l := shape.Layers - 1; l >= 0; l-- {
		wb, err := d.Alloc(working)
		if err != nil {
			return 0, err
		}
		gb, err := d.Alloc(gradLayer)
		if err != nil {
			return 0, err
		}
		d.Free(wb)
		d.Free(gb) // reduced into the owned partition, bucket released (§5.2)
	}

	// CB fused buffer around the gradient reduction.
	fb, err := d.Alloc(256 << 20)
	if err != nil {
		return 0, err
	}
	d.Free(fb)

	if err := d.Validate(); err != nil {
		return 0, errors.New("allocator invariant violation: " + err.Error())
	}
	return float64(d.Stats().PeakReserved), nil
}
