package engine

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Every failure class yields its own wrapped sentinel — and only that one —
// so callers can dispatch on errors.Is without string matching.
func TestValidateSentinelErrors(t *testing.T) {
	sentinels := []error{ErrJSON, ErrModel, ErrWorld, ErrStage, ErrOptimizer, ErrBatch, ErrTopology, ErrSchedule, ErrData}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		// Data-section cases use relative corpus paths; anchor them so the
		// intended validation fires rather than the no-base-dir rejection
		// (which has its own cases below).
		c.BaseDir = "."
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero ranks", mut(func(c *Config) { c.Ranks = 0 }), ErrWorld},
		{"negative ranks", mut(func(c *Config) { c.Ranks = -2 }), ErrWorld},
		{"hidden not divisible by heads", mut(func(c *Config) { c.Model.Hidden = 65 }), ErrModel},
		{"zero model dims", mut(func(c *Config) { c.Model.Layers = 0 }), ErrModel},
		{"unknown stage name", mut(func(c *Config) { c.Stage = "zero" }), ErrStage},
		{"stage out of range", mut(func(c *Config) { c.Stage = "4" }), ErrStage},
		{"unknown optimizer", mut(func(c *Config) { c.Optimizer.Type = "adagrad" }), ErrOptimizer},
		{"zero lr", mut(func(c *Config) { c.Optimizer.LR = 0 }), ErrOptimizer},
		{"momentum out of range", mut(func(c *Config) { c.Optimizer.Momentum = 1 }), ErrOptimizer},
		{"negative clip", mut(func(c *Config) { c.GradClip = -1 }), ErrOptimizer},
		{"accum times micro not global", mut(func(c *Config) {
			c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 8, 4, 3
		}), ErrBatch},
		{"micro not dividing global", mut(func(c *Config) {
			c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 8, 3, 0
		}), ErrBatch},
		{"accum not dividing global", mut(func(c *Config) {
			c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 8, 0, 3
		}), ErrBatch},
		{"micro not divisible by ranks", mut(func(c *Config) {
			c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 12, 6, 2
		}), ErrBatch},
		{"no batch at all", mut(func(c *Config) {
			c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = 0, 0, 0
		}), ErrBatch},
		{"negative batch", mut(func(c *Config) { c.GlobalBatch = -8 }), ErrBatch},
		{"node size not tiling ranks", mut(func(c *Config) { c.NodeSize = 3 }), ErrTopology},
		{"negative node size", mut(func(c *Config) { c.NodeSize = -2 }), ErrTopology},
		{"negative bucket", mut(func(c *Config) { c.BucketElems = -1 }), ErrSchedule},
		{"negative queue depth", mut(func(c *Config) { c.QueueDepth = -1 }), ErrSchedule},
		{"negative prefetch depth", mut(func(c *Config) { c.PrefetchDepth = -1 }), ErrSchedule},
		{"data without path", mut(func(c *Config) { c.Data = &DataConfig{} }), ErrData},
		{"unknown tokenizer", mut(func(c *Config) {
			c.Data = &DataConfig{Path: "x.txt", Tokenizer: "wordpiece"}
		}), ErrData},
		{"vocab_size with byte tokenizer", mut(func(c *Config) {
			c.Data = &DataConfig{Path: "x.txt", VocabSize: 300}
		}), ErrData},
		{"bpe budget below floor", mut(func(c *Config) {
			c.Model.Vocab = 512
			c.Data = &DataConfig{Path: "x.txt", Tokenizer: "bpe", VocabSize: 200}
		}), ErrData},
		{"seq_len beyond model", mut(func(c *Config) {
			c.Model.Vocab = 300
			c.Data = &DataConfig{Path: "x.txt", SeqLen: 1000}
		}), ErrData},
		{"seq_len too short", mut(func(c *Config) {
			c.Model.Vocab = 300
			c.Data = &DataConfig{Path: "x.txt", SeqLen: 1}
		}), ErrData},
		{"negative shuffle buffer", mut(func(c *Config) {
			c.Model.Vocab = 300
			c.Data = &DataConfig{Path: "x.txt", ShuffleBuffer: -1}
		}), ErrData},
		{"model vocab below byte floor", mut(func(c *Config) {
			c.Data = &DataConfig{Path: "x.txt"} // DefaultConfig vocab 101 < 257
		}), ErrData},
		{"model vocab below bpe budget", mut(func(c *Config) {
			c.Model.Vocab = 400
			c.Data = &DataConfig{Path: "x.txt", Tokenizer: "bpe", VocabSize: 500}
		}), ErrData},
		{"relative corpus path without base dir", mut(func(c *Config) {
			c.BaseDir = ""
			c.Model.Vocab = 300
			c.Data = &DataConfig{Path: "x.txt"}
		}), ErrData},
		{"relative vocab path without base dir", mut(func(c *Config) {
			c.BaseDir = ""
			c.Model.Vocab = 300
			c.Data = &DataConfig{Path: "/abs/x.txt", Tokenizer: "vocab.json"}
		}), ErrData},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want %v", tc.name, tc.want)
			continue
		}
		for _, s := range sentinels {
			if is, want := errors.Is(err, s), s == tc.want; is != want {
				t.Errorf("%s: errors.Is(%v, %v) = %v, want %v", tc.name, err, s, is, want)
			}
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig must validate, got %v", err)
	}
}

// Malformed JSON in all its flavors is ErrJSON: syntax errors, unknown
// fields (ds_config typos), wrong types and trailing garbage.
func TestParseConfigMalformedJSON(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"syntax error", `{"ranks": 4,}`},
		{"unknown field", `{"ranks": 4, "zero_optimization": {"stage": 2}}`},
		{"wrong type", `{"ranks": "four"}`},
		{"bad stage type", `{"stage": [2]}`},
		{"trailing garbage", `{"ranks": 4} {"ranks": 8}`},
		{"not an object", `42 43`},
	} {
		if _, err := ParseConfig([]byte(tc.in)); !errors.Is(err, ErrJSON) {
			t.Errorf("%s: ParseConfig error = %v, want ErrJSON", tc.name, err)
		}
	}
}

// The batch geometry follows the DeepSpeed contract: any one of
// global/micro/accum derives from the other two; all three must agree.
func TestBatchGeometryDerivation(t *testing.T) {
	for _, tc := range []struct {
		name              string
		global, micro, k  int
		wantGlobal, wantK int
		wantMicro         int
	}{
		{"global only", 8, 0, 0, 8, 1, 8},
		{"global+micro derive k", 16, 4, 0, 16, 4, 4},
		{"global+k derive micro", 16, 0, 2, 16, 2, 8},
		{"micro+k derive global", 0, 4, 3, 12, 3, 4},
		{"all three consistent", 16, 8, 2, 16, 2, 8},
	} {
		c := DefaultConfig()
		c.GlobalBatch, c.MicroBatch, c.GradAccumSteps = tc.global, tc.micro, tc.k
		norm, err := c.Normalized()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if norm.GlobalBatch != tc.wantGlobal || norm.GradAccumSteps != tc.wantK || norm.MicroBatch != tc.wantMicro {
			t.Errorf("%s: got (global %d, micro %d, k %d), want (%d, %d, %d)", tc.name,
				norm.GlobalBatch, norm.MicroBatch, norm.GradAccumSteps,
				tc.wantGlobal, tc.wantMicro, tc.wantK)
		}
	}
}

// The data section fills its defaults from the rest of the config: the
// sequence length from the model, the shuffle seed from the single
// top-level seed (one field reproduces init, synthetic data and corpus
// order), and the BPE budget from its documented default — without
// mutating the caller's config.
func TestDataConfigDefaults(t *testing.T) {
	c := DefaultConfig()
	c.BaseDir = "."
	c.Model.Vocab = 600
	c.Seed = 99
	c.Data = &DataConfig{Path: "corpus.txt", Tokenizer: "bpe"}
	norm, err := c.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	d := norm.Data
	if d.SeqLen != c.Model.Seq {
		t.Errorf("seq_len default = %d, want model seq %d", d.SeqLen, c.Model.Seq)
	}
	if d.Seed != 99 {
		t.Errorf("data seed = %d, want top-level seed 99", d.Seed)
	}
	if d.VocabSize != 512 {
		t.Errorf("bpe vocab default = %d, want 512", d.VocabSize)
	}
	if d.Tokenizer != "bpe" {
		t.Errorf("tokenizer = %q", d.Tokenizer)
	}
	if c.Data.SeqLen != 0 || c.Data.Seed != 0 {
		t.Error("Normalized mutated the caller's data section")
	}
	// An explicit data seed wins over the top-level one.
	c.Data = &DataConfig{Path: "corpus.txt", Seed: 5}
	if norm, err = c.Normalized(); err != nil {
		t.Fatal(err)
	}
	if norm.Data.Seed != 5 {
		t.Errorf("explicit data seed = %d, want 5", norm.Data.Seed)
	}
}

// Stage accepts both JSON numbers and paper names.
func TestStageSpecJSONForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{`{"stage": 3}`, "Pos+g+p"},
		{`{"stage": "os+g"}`, "Pos+g"},
		{`{"stage": "ddp"}`, "DP"},
		{`{}`, "DP"}, // omitted → stage 0, the DeepSpeed default
	} {
		c, err := ParseConfig([]byte(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		st, err := c.Stage.Parse()
		if err != nil || st.String() != tc.want {
			t.Errorf("%s: stage %v (err %v), want %s", tc.in, st, err, tc.want)
		}
	}
}

// A config survives a marshal/parse round trip and still validates —
// DefaultConfig is itself a committable artifact.
func TestConfigMarshalRoundTrip(t *testing.T) {
	orig := DefaultConfig()
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed the config:\n  orig %+v\n  back %+v", orig, back)
	}
	if err := back.Validate(); err != nil {
		t.Error(err)
	}
}

// Every committed example config must load strictly and validate — the CI
// config-roundtrip gate (a stale config cannot silently rot in the tree).
func TestCommittedConfigsValidate(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"../../examples/*/config*.json", "../../cmd/*/config.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no committed configs found (expected at least examples/quickstart/config.json)")
	}
	foundQuickstart := false
	for _, p := range paths {
		cfg, err := LoadConfig(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		if strings.Contains(p, "quickstart") {
			foundQuickstart = true
		}
	}
	if !foundQuickstart {
		t.Error("examples/quickstart/config.json missing")
	}
}

// FuzzParseConfig: any input either is rejected — by ParseConfig or by
// Normalized — or its normalized config survives json.Marshal → ParseConfig
// unchanged; nothing panics. Seeded with every committed example config.
// BaseDir is not a JSON field, so the fuzz sets an absolute one (letting
// relative data paths normalize) and carries it across the round trip.
func FuzzParseConfig(f *testing.F) {
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ok, _ := filepath.Match("config*.json", d.Name()); ok {
			blob, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f.Add(blob)
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := ParseConfig(blob)
		if err != nil {
			return
		}
		c.BaseDir = "/fuzz"
		norm, err := c.Normalized()
		if err != nil {
			return
		}
		out, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal normalized config: %v", err)
		}
		back, err := ParseConfig(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		back.BaseDir = norm.BaseDir
		if !reflect.DeepEqual(back, norm) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, norm)
		}
	})
}
