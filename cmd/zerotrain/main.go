// Command zerotrain runs end-to-end training of a GPT-2-like model on a
// simulated multi-GPU cluster through the declarative Engine API, printing
// loss, throughput of the simulation, per-rank memory accounting and wire
// traffic. It is the "kick the tires" tool for the library.
//
// The run is described by a JSON config (engine.Config, ds_config-style);
// every flag overrides the corresponding config field, so a committed
// config plus a couple of flags covers most experiments:
//
//	zerotrain -config examples/quickstart/config.json
//	zerotrain -config cfg.json -stage 3 -prefetch      (override the stage)
//	zerotrain -ranks 4 -stage 2 -steps 50              (no config file: flag defaults)
//	zerotrain -batch 32 -accum 4                       (8-row micro-batches, Step fires every 4th)
//	zerotrain -ranks 8 -stage 3 -fp16 -checkpoint -clip 1.0
//	zerotrain -ranks 4 -stage 2 -save ckpt.zelc -steps 20
//	zerotrain -ranks 2 -stage 3 -load ckpt.zelc -steps 20  (any ranks/stage: the snapshot is flat)
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/zero"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zerotrain: ")
	def := engine.DefaultConfig()
	var (
		configPath = flag.String("config", "", "JSON engine config (engine.Config); flags override its fields")
		ranks      = flag.Int("ranks", def.Ranks, "simulated GPU count (DP degree)")
		stage      = flag.String("stage", string(def.Stage), "ZeRO stage: 0/ddp, 1/os, 2/os+g, 3/full")
		layers     = flag.Int("layers", def.Model.Layers, "transformer layers")
		hidden     = flag.Int("hidden", def.Model.Hidden, "hidden width")
		heads      = flag.Int("heads", def.Model.Heads, "attention heads")
		vocab      = flag.Int("vocab", def.Model.Vocab, "vocabulary size")
		seq        = flag.Int("seq", def.Model.Seq, "sequence length")
		batch      = flag.Int("batch", def.GlobalBatch, "global batch size per optimizer step")
		microB     = flag.Int("micro", def.MicroBatch, "micro-batch size per Forward/Backward (global rows)")
		accum      = flag.Int("accum", def.GradAccumSteps, "gradient accumulation steps per optimizer step")
		steps      = flag.Int("steps", 30, "optimizer steps to train")
		opt        = flag.String("opt", def.Optimizer.Type, "optimizer: adam, sgd or lamb")
		lr         = flag.Float64("lr", def.Optimizer.LR, "learning rate")
		clip       = flag.Float64("clip", def.GradClip, "gradient clipping norm (0 = off)")
		fp16       = flag.Bool("fp16", false, "mixed-precision training: fp16 compute with dynamic loss scaling (precision.fp16_compute)")
		checkpoint = flag.Bool("checkpoint", def.Checkpoint, "activation checkpointing")
		bucket     = flag.Int("bucket", def.BucketElems, "gradient bucket elements (0 = one bucket per gradient unit)")
		overlap    = flag.Bool("overlap", def.Overlap, "overlap gradient collectives with backward compute (grad stream)")
		prefetch   = flag.Bool("prefetch", def.Prefetch, "stages 1-3: pipeline parameter all-gathers one layer group ahead on the prefetch stream")
		nodeSize   = flag.Int("nodesize", def.NodeSize, "ranks per simulated node: route collectives hierarchically (0 = flat)")
		seed       = flag.Int64("seed", def.Seed, "init and data seed")
		dataPath   = flag.String("data", "", "corpus text file: stream real data (overrides the config's data.path)")
		savePath   = flag.String("save", "", "write the final snapshot here after training (ZELC, the format zeroserve serves and persists)")
		loadPath   = flag.String("load", "", "resume from a ZELC snapshot: a -save file, a zeroserve /checkpoint body or a ckpt-*.zelc from its -snapshot-dir")
	)
	flag.Parse()

	cfg := def
	if *configPath != "" {
		var err error
		if cfg, err = engine.LoadConfig(*configPath); err != nil {
			log.Fatal(err)
		}
	}
	// Explicitly-set flags override the config file field by field; batch
	// geometry fields that were NOT set are re-derived so a single -batch,
	// -micro or -accum override stays consistent.
	var batchSet, microSet, accumSet bool
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ranks":
			cfg.Ranks = *ranks
		case "stage":
			cfg.Stage = engine.StageSpec(*stage)
		case "layers":
			cfg.Model.Layers = *layers
		case "hidden":
			cfg.Model.Hidden = *hidden
		case "heads":
			cfg.Model.Heads = *heads
		case "vocab":
			cfg.Model.Vocab = *vocab
		case "seq":
			cfg.Model.Seq = *seq
		case "batch":
			cfg.GlobalBatch, batchSet = *batch, true
		case "micro":
			cfg.MicroBatch, microSet = *microB, true
		case "accum":
			cfg.GradAccumSteps, accumSet = *accum, true
		case "opt":
			cfg.Optimizer.Type = *opt
		case "lr":
			cfg.Optimizer.LR = *lr
		case "clip":
			cfg.GradClip = *clip
		case "fp16":
			p := engine.PrecisionConfig{}
			if cfg.Precision != nil {
				p = *cfg.Precision
			}
			p.FP16Compute = *fp16
			cfg.Precision = &p
		case "checkpoint":
			cfg.Checkpoint = *checkpoint
		case "bucket":
			cfg.BucketElems = *bucket
		case "overlap":
			cfg.Overlap = *overlap
		case "prefetch":
			cfg.Prefetch = *prefetch
		case "nodesize":
			cfg.NodeSize = *nodeSize
		case "seed":
			cfg.Seed = *seed
		case "data":
			if cfg.Data == nil {
				cfg.Data = &engine.DataConfig{}
			}
			// A flag path is relative to the invocation directory, not the
			// config file's BaseDir — anchor it here.
			p, err := filepath.Abs(*dataPath)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Data.Path = p
		}
	})
	if (batchSet || accumSet) && !microSet {
		cfg.MicroBatch = 0 // re-derive from global/accum
	}
	if microSet && !batchSet {
		cfg.GlobalBatch = 0 // re-derive from micro×accum
	}
	if batchSet && microSet && !accumSet {
		cfg.GradAccumSteps = 0 // re-derive from global/micro
	}

	cfg, err := cfg.Normalized()
	if err != nil {
		log.Fatal(err)
	}

	var resume *zero.Snapshot
	if *loadPath != "" {
		if resume, err = zero.ReadSnapshotFile(*loadPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming from %s (step %d)\n", *loadPath, resume.Boundaries())
	}

	st, _ := cfg.Stage.Parse()
	psi := cfg.Model.ParamCount()
	half := cfg.Precision != nil && cfg.Precision.FP16Compute
	fmt.Printf("model: Ψ=%d params | ranks: %d | stage: %v | opt: %s | fp16: %v | ckpt: %v\n",
		psi, cfg.Ranks, st, cfg.Optimizer.Type, half, cfg.Checkpoint)
	fmt.Printf("batch: %d global = %d micro-batch × %d accumulation steps (accumulator: Ψ/N elems at stages ≥ 1)\n",
		cfg.GlobalBatch, cfg.MicroBatch, cfg.GradAccumSteps)
	fmt.Println()

	seqLen := cfg.Model.Seq
	if cfg.Data != nil {
		seqLen = cfg.Data.SeqLen
		fmt.Printf("data: %s | tokenizer: %s | seq_len: %d | shuffle: %d docs/shard × %d shards\n\n",
			cfg.Data.Path, cfg.Data.Tokenizer, cfg.Data.SeqLen, cfg.Data.ShuffleBuffer, cfg.Ranks)
	}
	start := time.Now()
	var savedBytes int64
	var corpusTokens int64
	var corpusEpochs, corpusVocab int
	var resident int64
	w, err := engine.Run(cfg, func(e *engine.Engine) {
		if e.Rank() == 0 {
			resident = e.Trainer().ResidentBytes()
		}
		// Each rank drains its own batcher; the streams are deterministic,
		// so every rank sees the same global micro-batch sequence.
		var batcher engine.Batcher
		if cfg.Data != nil {
			ld, err := engine.OpenData(cfg)
			if err != nil {
				log.Fatal(err)
			}
			defer ld.Close()
			if e.Rank() == 0 {
				defer func() {
					corpusTokens, corpusEpochs, corpusVocab = ld.Tokens(), ld.Epochs(), ld.VocabSize()
				}()
			}
			batcher = ld
		} else {
			batcher = model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
		}
		if resume != nil {
			if err := e.Resume(resume, batcher); err != nil {
				log.Fatal(err)
			}
		}
		for s := 0; s < *steps; s++ {
			loss := e.TrainStream(batcher)
			if e.Rank() == 0 && (s == 0 || (s+1)%10 == 0) {
				clipNote := ""
				if cfg.GradClip > 0 {
					clipNote = fmt.Sprintf("  |grad| %.3f", e.Trainer().LastGradNorm)
				}
				fmt.Printf("  step %3d  loss %.4f%s\n", e.Steps(), loss, clipNote)
			}
		}
		if *savePath != "" {
			// Every rank writes its own slab into the file.
			n, err := e.Trainer().SaveFile(*savePath)
			if err != nil {
				log.Fatal(err)
			}
			if e.Rank() == 0 {
				savedBytes = n
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if *savePath != "" {
		fmt.Printf("\ncheckpoint written to %s (%d bytes)\n", *savePath, savedBytes)
	}
	tokens := int64(*steps) * int64(cfg.GlobalBatch) * int64(seqLen)
	st0 := w.Stats(0)
	fmt.Printf("\n%d steps in %v (%.0f tokens/s simulated)\n",
		*steps, elapsed.Round(time.Millisecond), float64(tokens)/elapsed.Seconds())
	if cfg.Data != nil {
		fmt.Printf("corpus: %d tokens streamed over %d epoch(s), tokenizer vocab %d\n",
			corpusTokens, corpusEpochs, corpusVocab)
	}
	dom := int64(comm.Partition(psi, cfg.Ranks)[0].Len()) // rank 0's optimizer domain
	if st == zero.StageDDP {
		dom = int64(psi)
	}
	live := perfmodel.LiveModelState(perfmodel.Shape(cfg.Model), int(st), dom, half)
	fmt.Printf("model state (rank 0): %.2f MB resident, %.2f MB by the live-sum form under Adam, %.2f MB predicted by §3.1 (baseline DP would be %.2f MB)\n",
		float64(resident)/1e6, float64(live.Total())/1e6, perfmodel.ModelStateBytes(int64(psi), int(st), cfg.Ranks)/1e6,
		perfmodel.ModelStateBytes(int64(psi), int(zero.StageDDP), cfg.Ranks)/1e6)
	fmt.Printf("wire (rank 0): %d elems, %d bytes (native dtype accounting)\n",
		st0.ElemsSent, st0.BytesSent)
	for _, name := range []string{comm.DefaultStream, zero.StreamGrad, zero.StreamPrefetch, zero.StreamCheckpoint} {
		if elems := st0.PerStream[name]; elems > 0 {
			fmt.Printf("  stream %-10s %d elems\n", name, elems)
		}
	}
	if intra, inter := st0.PerGroup["hier-intra"], st0.PerGroup["hier-inter"]; inter.Bytes > 0 {
		fmt.Printf("topology (nodes of %d): intra-node %d B, inter-node %d B per rank — %.1fx less crosses the uplink\n",
			cfg.NodeSize, intra.Bytes, inter.Bytes,
			float64(intra.Bytes+inter.Bytes)/float64(inter.Bytes))
	} else if cfg.NodeSize != 0 {
		fmt.Printf("topology: node_size %d covers the whole %d-rank world (or a single rank) — flat routing\n",
			cfg.NodeSize, cfg.Ranks)
	}
}
