package perfmodel

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

// Shape.Params is the repository's one Ψ formula: it counts exactly what
// the real model allocates, for every model the repository trains.
func TestParamsMatchesModel(t *testing.T) {
	cfgs := map[string]model.Config{
		// internal/experiments' miniature worlds: the stage sweep, comm
		// volume and ablations share one; residency.go has its own.
		"experiments stage sweep": {Layers: 3, Hidden: 32, Heads: 4, Vocab: 31, Seq: 8},
		"experiments residency":   {Layers: 4, Hidden: 64, Heads: 4, Vocab: 96, Seq: 16},
		// The four workloads of bench/workloads.go.
		"bench dense-s2-fp32":  {Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32},
		"bench gather-s3-fp16": {Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 8},
		"bench corpus-accum4":  {Layers: 1, Hidden: 32, Heads: 2, Vocab: 512, Seq: 32},
		"bench serve-snap":     {Layers: 2, Hidden: 64, Heads: 4, Vocab: 128, Seq: 32},
	}
	for _, ex := range []string{"quickstart", "corpus"} {
		blob, err := os.ReadFile(filepath.Join("..", "..", "examples", ex, "config.json"))
		if err != nil {
			t.Fatal(err)
		}
		var c struct {
			Model model.Config `json:"model"`
		}
		if err := json.Unmarshal(blob, &c); err != nil {
			t.Fatalf("examples/%s: %v", ex, err)
		}
		cfgs["examples/"+ex] = c.Model
	}
	for name, c := range cfgs {
		s := Shape{Layers: c.Layers, Hidden: c.Hidden, Heads: c.Heads, Vocab: c.Vocab, Seq: c.Seq}
		if got, want := s.Params(), int64(c.ParamCount()); got != want {
			t.Errorf("%s %+v: Shape.Params %d, model.Config.ParamCount %d", name, c, got, want)
		}
	}
}

// ShapeForParams returns a GPT2Like shape from Table 4's ladder with as
// many layers as Ψ affords: its Ψ is at most the target, one more layer
// would pass it.
func TestShapeForParamsIsGPT2Like(t *testing.T) {
	for _, psi := range []int64{1_500_000_000, 7_500_000_000, 40_690_753_536, 100_000_000_000, 1_000_000_000_000} {
		s := ShapeForParams(psi)
		ladder := GPT2Like(s.Layers, s.Hidden, s.Heads)
		if s != ladder || s.Params() != ladder.Params() {
			t.Errorf("ShapeForParams(%d) = %+v, not GPT2Like(%d, %d, %d)", psi, s, s.Layers, s.Hidden, s.Heads)
		}
		if s.Params() > psi || GPT2Like(s.Layers+1, s.Hidden, s.Heads).Params() <= psi {
			t.Errorf("ShapeForParams(%d): %d layers give Ψ=%d, not the most that fit", psi, s.Layers, s.Params())
		}
	}
}
