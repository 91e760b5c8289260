package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// windowedTwin returns a NewWindowed model of cfg whose parameter windows
// read ref's Params, the way a ZeRO rank binds its gathered groups.
func windowedTwin(cfg Config, ref *Model) *Model {
	m := NewWindowed(cfg)
	for g := 0; g < cfg.Layers+2; g++ {
		lo, hi := m.Layout.group(g)
		m.BindParams(g, ref.Params[lo:hi], nil)
	}
	return m
}

// On seeded random configurations (1-6 layers, heads dividing h, any
// vocabulary and sequence length) the gradient units tile [0, Ψ) exactly
// once, each a run of whole tensors, and Backward brackets them in its
// order: the embeddings open first and close last, ln_f closes first, and
// each block's units close mlp.out, mlp.in, attn from block L-1 down. A
// NewWindowed model whose gradient windows are bound only between a unit's
// two hooks computes the standalone model's gradients bit for bit.
func TestGradUnitsTileInBackwardOrder(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	for i := 0; i < 40; i++ {
		heads := 1 + r.Intn(4)
		cfg := Config{Layers: 1 + r.Intn(6), Hidden: heads * (1 + r.Intn(6)), Heads: heads, Vocab: 2 + r.Intn(30), Seq: 1 + r.Intn(9)}
		l := BuildLayout(cfg)
		bounds := map[int]bool{l.Total: true}
		for _, s := range l.Segments {
			bounds[s.Lo] = true
		}
		off := 0
		for _, u := range l.Units {
			if u.Lo != off || u.Hi <= u.Lo || !bounds[u.Hi] {
				t.Fatalf("%+v: unit %s is [%d, %d) after %d: not the next run of whole tensors", cfg, u.Name, u.Lo, u.Hi, off)
			}
			off = u.Hi
		}
		if L := cfg.Layers; off != l.Total || len(l.Units) != 3*L+2 {
			t.Fatalf("%+v: %d units cover %d of %d parameters, want 3L+2 = %d covering all", cfg, len(l.Units), off, l.Total, 3*L+2)
		}

		batch := 1 + r.Intn(3)
		ids, targets := SyntheticBatch(int64(i), batch, cfg.Seq, cfg.Vocab)
		ref := New(cfg, int64(i))
		ref.Loss(ids, targets, batch)
		ref.Backward()
		m := windowedTwin(cfg, ref)
		grads := make([]float32, l.Total)
		var opened, closed []int
		m.UnitPreHook = func(u int) {
			opened = append(opened, u)
			m.BindGrad(u, grads[l.Units[u].Lo:l.Units[u].Hi])
		}
		m.UnitHook = func(u int) {
			closed = append(closed, u)
			m.BindGrad(u, nil)
		}
		m.Loss(ids, targets, batch)
		m.Backward()
		last := len(l.Units) - 1
		wantOpened, wantClosed := []int{0, last}, []int{last}
		for u := last - 1; u >= 1; u-- {
			wantOpened, wantClosed = append(wantOpened, u), append(wantClosed, u)
		}
		wantClosed = append(wantClosed, 0)
		if !slices.Equal(opened, wantOpened) || !slices.Equal(closed, wantClosed) {
			t.Fatalf("%+v: units opened %v and closed %v, want %v and %v", cfg, opened, closed, wantOpened, wantClosed)
		}
		for j, g := range grads {
			if math.Float32bits(g) != math.Float32bits(ref.Grads[j]) {
				t.Fatalf("%+v: gradient %d is %g through unit windows, %g in the standalone model", cfg, j, g, ref.Grads[j])
			}
		}
	}
}

// A gradient write outside the window bound for its unit panics and names
// the unit: for each unit in turn, the caller binds every other one.
func TestUnboundGradUnitPanicsNamingIt(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(5, 2, cfg.Seq, cfg.Vocab)
	ref := New(cfg, 1)
	for skip, unit := range ref.Layout.Units {
		m := windowedTwin(cfg, ref)
		grads := make([]float32, m.Layout.Total)
		for u, s := range m.Layout.Units {
			if u != skip {
				m.BindGrad(u, grads[s.Lo:s.Hi])
			}
		}
		m.Loss(ids, targets, 2)
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			m.Backward()
			return ""
		}()
		if want := "written outside the window bound for unit " + unit.Name; !strings.Contains(got, want) {
			t.Errorf("unit %s unbound: Backward recovered %q, want a panic containing %q", unit.Name, got, want)
		}
	}
}
