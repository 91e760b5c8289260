// Package experiments contains one driver per table and figure of the
// paper's evaluation (§10). Each driver returns a Table whose rows mirror
// what the paper reports; cmd/zerobench renders them, and this package's
// tests pin each table's shape and the paper's orderings against it.
//
// Surface: one func per table or figure (Table1, Table2, Fig1 … Fig8,
// StageMemory, StageSweep, StageThroughput, AccumSweep, CommVolume,
// Ablations, Trillion), each returning a Table to Render. Imported by
// cmd/zerobench.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render pretty-prints the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RunSpec is one row of the paper's appendix configuration tables
// (Tables 5-10): a model shape plus its parallelization and batch size.
type RunSpec struct {
	Label  string
	GPUs   int
	MP     int
	Layers int
	Hidden int
	Heads  int
	Batch  int // per-replica micro-batch ("Batch size" column)
}

// DP returns the data-parallel degree of the run.
func (r RunSpec) DP() int { return r.GPUs / r.MP }

// Fig2ZeRO reproduces Table 5's ZeRO rows (ZeRO-100B: Pos+g + ZeRO-R, MP
// within a node).
var Fig2ZeRO = []RunSpec{
	{"1.5B", 400, 1, 48, 1600, 16, 24},
	{"8B", 400, 4, 72, 3072, 24, 64},
	{"40B", 400, 4, 88, 6144, 32, 12},
	{"60B", 400, 16, 132, 6144, 32, 64},
	{"80B", 400, 16, 100, 8192, 64, 32},
	{"100B", 400, 16, 125, 8192, 64, 32},
	{"120B", 400, 16, 150, 8192, 64, 24},
	{"140B", 400, 16, 175, 8192, 64, 16},
	{"170B", 400, 16, 212, 8192, 64, 12},
}

// Fig2Baseline reproduces Table 5's baseline (Megatron-LM) rows; beyond 40B
// the MP degree forces the group across node boundaries.
var Fig2Baseline = []RunSpec{
	{"1.5B", 400, 2, 48, 1600, 16, 16},
	{"8B", 400, 8, 72, 3072, 24, 8},
	{"40B", 384, 32, 88, 6144, 64, 4},
	{"60B", 384, 64, 132, 6144, 64, 4},
	{"80B", 384, 128, 100, 8192, 128, 4},
	{"100B", 384, 128, 125, 8192, 128, 2},
	{"120B", 384, 128, 150, 8192, 128, 2},
	{"140B", 384, 128, 175, 8192, 128, 2},
	{"170B", 256, 256, 212, 8192, 256, 2},
}

// Fig3Scaling reproduces Table 6: the 60B model from 64 to 400 GPUs; the
// batch grows with the memory freed by higher DP degree — the
// superlinearity mechanism.
var Fig3Scaling = []RunSpec{
	{"60B@64", 64, 16, 75, 8192, 32, 16},
	{"60B@128", 128, 16, 75, 8192, 32, 48},
	{"60B@256", 256, 16, 75, 8192, 32, 48},
	{"60B@400", 400, 16, 75, 8192, 32, 64},
}

// Fig4Models reproduces Table 10: ZeRO-DP only (no MP) on 128 GPUs, up to
// 13B parameters.
var Fig4Models = []RunSpec{
	{"1.5B", 128, 1, 34, 1920, 16, 24},
	{"2.5B", 128, 1, 54, 1920, 16, 24},
	{"4B", 128, 1, 64, 2304, 24, 16},
	{"6B", 128, 1, 52, 3072, 24, 12},
	{"8B", 128, 1, 72, 3072, 24, 8},
	{"10B", 128, 1, 50, 4096, 32, 6},
	{"11B", 128, 1, 54, 4096, 32, 4},
	{"12B", 128, 1, 58, 4096, 32, 4},
	{"13B", 128, 1, 62, 4096, 32, 2},
}

// Fig4Baseline reproduces Table 10's baseline rows: PyTorch DDP tops out
// near 1.4B parameters.
var Fig4Baseline = []RunSpec{
	{"1.16B", 128, 1, 24, 1920, 16, 8},
	{"1.38B", 128, 1, 40, 1536, 16, 1},
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
