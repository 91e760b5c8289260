package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/zero"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s, "x"), "B"), "T"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig1Values(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(tab.Rows))
	}
	wants := []string{"120.00 GB", "31.41 GB", "16.64 GB", "1.88 GB"}
	for i, w := range wants {
		if tab.Rows[i][2] != w {
			t.Errorf("row %d: %q, want %q", i, tab.Rows[i][2], w)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 6 || len(tab.Header) != 10 {
		t.Fatalf("table shape %dx%d, want 6x10", len(tab.Rows), len(tab.Header))
	}
	// Spot-check: DP=1024, 1T, Pos+g+p → 15.63 GB.
	last := tab.Rows[5]
	if v := parseF(t, last[9]); v < 15.5 || v > 15.7 {
		t.Errorf("1T Pos+g+p @1024 = %v, want ≈15.6", v)
	}
}

func TestTable2Ordering(t *testing.T) {
	tab := Table2()
	for _, row := range tab.Rows {
		base := parseF(t, row[2])
		pos := parseF(t, row[3])
		posg := parseF(t, row[4])
		meas := parseF(t, row[7])
		if !(base < pos && pos < posg) {
			t.Errorf("MP=%s: theoretical ordering broken: %v %v %v", row[0], base, pos, posg)
		}
		if meas >= pos {
			t.Errorf("MP=%s: measured ZeRO-OS %v must be below theoretical Pos %v", row[0], meas, pos)
		}
	}
}

// Figure 2's shape: ZeRO sustains 30+ TFlops/GPU through 100B; the
// baseline collapses after 40B (cross-node MP); speedup reaches ≥6x for
// the largest models.
func TestFig2Shape(t *testing.T) {
	tab := Fig2()
	byLabel := map[string][]string{}
	for _, r := range tab.Rows {
		byLabel[r[0]] = r
	}
	if v := parseF(t, byLabel["100B"][1]); v < 30 || v > 55 {
		t.Errorf("ZeRO 100B = %v TF/GPU, want 30-55", v)
	}
	if v := parseF(t, byLabel["100B"][2]); v > 6 {
		t.Errorf("baseline 100B = %v TF/GPU, want < 6 (cross-node collapse)", v)
	}
	if v := parseF(t, byLabel["100B"][3]); v < 6 {
		t.Errorf("100B speedup %vx, want ≥6x", v)
	}
	// Baseline is still competitive at 1.5B/8B (MP in node).
	if v := parseF(t, byLabel["8B"][2]); v < 15 {
		t.Errorf("baseline 8B = %v TF/GPU, should be healthy in-node", v)
	}
}

// Figure 3's shape: aggregate throughput beats perfect scaling (superlinear).
func TestFig3Superlinear(t *testing.T) {
	tab := Fig3()
	last := tab.Rows[len(tab.Rows)-1]
	if v := parseF(t, last[5]); v <= 1.0 {
		t.Errorf("400-GPU aggregate vs perfect = %vx, want > 1 (superlinear)", v)
	}
	// Per-GPU throughput at 400 GPUs exceeds the 64-GPU value.
	first := tab.Rows[0]
	if parseF(t, last[2]) <= parseF(t, first[2]) {
		t.Error("per-GPU throughput should grow 64 -> 400 GPUs")
	}
}

// Figure 4's shape: every ZeRO row through 13B fits; baseline fits only the
// ~1.4B-and-below configs.
func TestFig4Democratization(t *testing.T) {
	tab := Fig4()
	for _, r := range tab.Rows {
		switch r[0] {
		case "13B":
			if r[3] != "OK" {
				t.Errorf("13B under ZeRO must fit, got %s", r[3])
			}
			if r[5] != "OOM" {
				t.Errorf("13B under baseline DP must OOM, got %s", r[5])
			}
			if v := parseF(t, r[2]); v < 15 {
				t.Errorf("13B ZeRO throughput %v, want ≥15 TF/GPU", v)
			}
		case "1.5B":
			if r[3] != "OK" {
				t.Errorf("1.5B under ZeRO must fit")
			}
		}
	}
}

func TestFig5Dominance(t *testing.T) {
	tab := Fig5()
	for _, r := range tab.Rows {
		if parseF(t, r[1]) >= parseF(t, r[2]) {
			t.Errorf("iter %s: 17B ppl %s not below 8.3B ppl %s", r[0], r[1], r[2])
		}
	}
	final := tab.Rows[len(tab.Rows)-1]
	if v := parseF(t, final[1]); v < 9.5 || v > 11.5 {
		t.Errorf("final 17B ppl %v, want ≈10.2", v)
	}
}

// Figure 6's shape: max model size strictly grows C1 -> C2 -> C4 -> C5 and
// C2 ≤ C3 ≤ C4 (stage-2 states vs Pa activations trade).
func TestFig6Ordering(t *testing.T) {
	tab := Fig6()
	get := func(name string) float64 {
		for _, r := range tab.Rows {
			if r[0] == name {
				return parseF(t, r[4])
			}
		}
		t.Fatalf("missing config %s", name)
		return 0
	}
	c1, c2, c3, c4, c5 := get("C1"), get("C2"), get("C3"), get("C4"), get("C5")
	if !(c1 < c2 && c2 <= c4 && c4 <= c5) {
		t.Errorf("ordering broken: C1=%v C2=%v C4=%v C5=%v", c1, c2, c4, c5)
	}
	if c3 <= c1 {
		t.Errorf("C3 (Pos+g) = %v should beat C1 (Pos) = %v", c3, c1)
	}
	if c1 < 20 || c1 > 80 {
		t.Errorf("C1 max = %vB, paper reports 40B", c1)
	}
}

// Figure 7's shape: Pa shrinks the cached peak (C1 > C2); for 100B, the
// small-state configs cannot even run (consistent with Figure 6).
func TestFig7Shape(t *testing.T) {
	tab := Fig7()
	vals := map[string]string{}
	for _, r := range tab.Rows {
		vals[r[0]+"/"+r[1]] = r[2]
	}
	c1 := parseF(t, vals["40B/C1"])
	c2 := parseF(t, vals["40B/C2"])
	if c2 >= c1 {
		t.Errorf("40B: C2 cached %v should be below C1 %v (Pa)", c2, c1)
	}
	for _, cfg := range []string{"C1", "C2"} {
		if vals["100B/"+cfg] != "OOM" {
			t.Errorf("100B %s should OOM at batch 32 (Pos states + activations exceed 32GB), got %v",
				cfg, vals["100B/"+cfg])
		}
	}
	if vals["100B/C4"] == "OOM" {
		t.Error("100B C4 should run")
	}
}

// Figure 8's shape: throughput improves with memory headroom C1 -> C4; C5
// loses some at 60B but is the configuration that gives 170B a usable
// batch.
func TestFig8Shape(t *testing.T) {
	tab := Fig8()
	vals := map[string][]string{}
	for _, r := range tab.Rows {
		vals[r[0]+"/"+r[1]] = r
	}
	tf := func(key string) float64 { return parseF(t, vals[key][3]) }
	batch := func(key string) float64 { return parseF(t, vals[key][2]) }

	if tf("60B/C4") <= tf("60B/C1") {
		t.Errorf("60B: C4 (%v) should beat C1 (%v)", tf("60B/C4"), tf("60B/C1"))
	}
	if tf("60B/C5") >= tf("60B/C4") {
		t.Errorf("60B: C5 (%v) should drop below C4 (%v) — CPU offload drag", tf("60B/C5"), tf("60B/C4"))
	}
	if vals["170B/C1"][2] != "OOM" || vals["170B/C2"][2] != "OOM" {
		t.Error("170B should OOM under C1/C2")
	}
	if batch("170B/C5") <= batch("170B/C4") {
		t.Errorf("170B: C5 batch (%v) should exceed C4 batch (%v)",
			batch("170B/C5"), batch("170B/C4"))
	}
}

// The measured comm volumes agree with theory within the ring rounding.
func TestCommVolumeTable(t *testing.T) {
	tab := CommVolume()
	for _, r := range tab.Rows {
		if r[0] == "Pa vs MP traffic" {
			if v := parseF(t, strings.TrimSuffix(r[3], "%")); v > 10 {
				t.Errorf("Pa overhead %v%%, want ≤10%%", v)
			}
		}
		meas := parseF(t, r[1])
		theory := parseF(t, r[2])
		if theory == 0 || meas/theory < 0.98 || meas/theory > 1.02 {
			t.Errorf("%s: measured %v vs theory %v", r[0], meas, theory)
		}
	}
}

func TestRenderDoesNotPanic(t *testing.T) {
	var buf bytes.Buffer
	for _, tab := range []Table{Fig1(), Table1(), Table2(), Fig2(), Fig3(), Fig4(), Fig5(), Fig6(), Fig7(), Fig8(), CommVolume()} {
		tab.Render(&buf)
	}
	if buf.Len() == 0 {
		t.Error("no output rendered")
	}
}

// The stage sweep's headline: every ZeRO stage moves fewer wire bytes per
// step than the seed's synchronous fp32 DP path, and stages 0-2 move the
// same number of *elements* (2Ψ-class schedules) while stage 3 moves 1.5x.
func TestStageSweepBytesBelowSeed(t *testing.T) {
	sc := DefaultStageSweep()
	sc.Steps = 1
	tab := StageSweep(sc)
	if len(tab.Rows) != 5 {
		t.Fatalf("want seed + 4 stage rows, got %d", len(tab.Rows))
	}
	seedBytes := parseF(t, tab.Rows[0][3])
	seedElems := parseF(t, tab.Rows[0][2])
	for _, row := range tab.Rows[1:] {
		if b := parseF(t, row[3]); b >= seedBytes {
			t.Errorf("%s: %v bytes/rank/step, must be below seed's %v", row[0], b, seedBytes)
		}
	}
	for _, i := range []int{1, 2, 3} { // DP, Pos, Pos+g
		if e := parseF(t, tab.Rows[i][2]); e != seedElems {
			t.Errorf("%s: %v elems, want seed's %v (2Ψ schedule)", tab.Rows[i][0], e, seedElems)
		}
	}
	s3 := parseF(t, tab.Rows[4][2])
	if ratio := s3 / seedElems; ratio < 1.49 || ratio > 1.51 {
		t.Errorf("Pos+g+p elems = %vx seed, want 1.5x (3Ψ vs 2Ψ)", ratio)
	}
}

// A single-stage sweep (zerobench -stage=2) keeps only the seed row plus
// the requested stage.
func TestStageSweepSingleStage(t *testing.T) {
	sc := DefaultStageSweep()
	sc.Steps = 1
	sc.Stages = []zero.Stage{zero.StageOSGrad}
	tab := StageSweep(sc)
	if len(tab.Rows) != 2 || !strings.Contains(tab.Rows[1][0], "Pos+g") {
		t.Fatalf("want seed + Pos+g rows, got %v", tab.Rows)
	}
	if parseF(t, tab.Rows[1][3]) >= parseF(t, tab.Rows[0][3]) {
		t.Error("stage 2 must move fewer bytes per step than the synchronous seed path")
	}
}

// The stage-throughput sweep's shape: each stage unlocks strictly larger
// models (DP dies at 8B, Pos+g at 40B, only Pos+g+p trains 100B without
// MP), and the overlapped schedule never loses to the synchronous one.
func TestStageThroughputShape(t *testing.T) {
	tab := StageThroughput()
	cell := func(model, stage string) []string {
		for _, r := range tab.Rows {
			if r[0] == model && r[1] == stage {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", model, stage)
		return nil
	}
	if cell("8B", "DP")[2] != "OOM" || cell("8B", "Pos")[2] != "OOM" {
		t.Error("8B should OOM under DP and Pos on 32GB")
	}
	if cell("8B", "Pos+g")[2] == "OOM" {
		t.Error("8B should fit under Pos+g (the democratization result)")
	}
	if cell("100B", "Pos+g")[2] != "OOM" {
		t.Error("100B should OOM under Pos+g without MP")
	}
	if cell("100B", "Pos+g+p")[2] == "OOM" {
		t.Error("100B should fit under Pos+g+p")
	}
	for _, r := range tab.Rows {
		if r[2] == "OOM" {
			continue
		}
		if parseF(t, r[3]) < parseF(t, r[4]) {
			t.Errorf("%s/%s: overlap %s TF/GPU below sync %s", r[0], r[1], r[3], r[4])
		}
	}
}

// The stage-memory sweep covers all four stages (stage 0 flat, stage 3
// scaling as 1/Nd) and appends the measured fp16-compute residency block:
// 2-byte activation storage and a per-rank compute footprint below fp32.
func TestStageMemorySweep(t *testing.T) {
	tab := StageMemory()
	if len(tab.Rows) != 8 {
		t.Fatalf("want 4 stage rows + 4 measured rows, got %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != tab.Rows[0][6] {
		t.Errorf("stage 0 must be flat across DP degrees: %v vs %v", tab.Rows[0][1], tab.Rows[0][6])
	}
	last := parseF(t, tab.Rows[3][6])
	if last > 0.2 {
		t.Errorf("Pos+g+p at Nd=1024 = %v GB, want ≈0.12", last)
	}
	if got := tab.Rows[5][1]; got != "4 -> 2 B/elem" {
		t.Errorf("activation storage row = %q, want fp32->fp16 width cut", got)
	}
	var f32Res, f16Res int64
	var pct float64
	if _, err := fmt.Sscanf(tab.Rows[7][1], "%d B -> %d B (%f%% of fp32)", &f32Res, &f16Res, &pct); err != nil {
		t.Fatalf("compute-resident row %q: %v", tab.Rows[7][1], err)
	}
	if f16Res >= f32Res {
		t.Errorf("fp16 compute residency %d B not below fp32's %d B", f16Res, f32Res)
	}
}

// Ablation invariants: bucketing preserves volume while multiplying
// messages; the hierarchy cuts inter-node traffic.
func TestAblationsInvariants(t *testing.T) {
	tab := Ablations()
	if len(tab.Rows) < 6 {
		t.Fatalf("ablations table too small: %d rows", len(tab.Rows))
	}
	if tab.Rows[0][1] != tab.Rows[1][1] {
		t.Errorf("bucketing changed total volume: %s vs %s", tab.Rows[0][1], tab.Rows[1][1])
	}
	m0 := parseF(t, tab.Rows[0][2])
	m1 := parseF(t, tab.Rows[1][2])
	if m1 <= m0 {
		t.Errorf("bucketing should multiply message count: %v vs %v", m0, m1)
	}
}
