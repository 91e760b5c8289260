// Command zerobench regenerates every table and figure of the ZeRO paper's
// evaluation from this repository's implementation, plus the stage-sweep
// experiments of the unified Stage API.
//
// Usage:
//
//	zerobench [flags] <experiment>...
//	zerobench all
//	zerobench -stage=2              (stage sweep restricted to Pos+g)
//	zerobench -stage=2 -bucket=1024 stagesweep
//
// Experiments: fig1 table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8
// commvolume ablations stagesweep stagethroughput stagememory accumsweep
// trillion. Output is an aligned text table per experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/comm"
	"repro/internal/experiments"
	"repro/internal/zero"
)

var (
	stageFlag  = flag.String("stage", "", "restrict the stage sweep to one stage (0-3, ddp, os, os+g, full); empty sweeps all")
	bucketFlag = flag.Int("bucket", 4096, "gradient bucket size in elements for the stage sweep")
	ranksFlag  = flag.Int("ranks", 4, "simulated GPU count for the stage sweep")
	stepsFlag  = flag.Int("steps", 3, "measured steps per stage-sweep row")
	nodeFlag   = flag.Int("nodesize", 0, "ranks per simulated node for the stage sweep: route collectives hierarchically and report the intra/inter split (0 = flat)")
)

// sweepConfig routes the flags into the sweep's engine.Config base — the
// same constructor zerotrain and the examples use, so knobs cannot drift
// between the entry points.
func sweepConfig() (experiments.StageSweepConfig, error) {
	sc := experiments.DefaultStageSweep()
	sc.Base.Ranks = *ranksFlag
	sc.Steps = *stepsFlag
	sc.Base.BucketElems = *bucketFlag
	if *nodeFlag != 0 {
		if err := comm.CheckNodeSize(sc.Base.Ranks, *nodeFlag); err != nil {
			return sc, err
		}
		sc.Base.NodeSize = *nodeFlag
	}
	if *stageFlag != "" {
		st, err := zero.ParseStage(*stageFlag)
		if err != nil {
			return sc, err
		}
		sc.Stages = []zero.Stage{st}
	}
	return sc, nil
}

var drivers = map[string]func() experiments.Table{
	"fig1":       experiments.Fig1,
	"table1":     experiments.Table1,
	"table2":     experiments.Table2,
	"fig2":       experiments.Fig2,
	"fig3":       experiments.Fig3,
	"fig4":       experiments.Fig4,
	"fig5":       experiments.Fig5,
	"fig6":       experiments.Fig6,
	"fig7":       experiments.Fig7,
	"fig8":       experiments.Fig8,
	"commvolume": experiments.CommVolume,
	"ablations":  experiments.Ablations,
	"stagesweep": func() experiments.Table {
		sc, _ := sweepConfig() // flags validated in main before dispatch
		return experiments.StageSweep(sc)
	},
	"stagethroughput": experiments.StageThroughput,
	"stagememory":     experiments.StageMemory,
	"accumsweep":      experiments.AccumSweep,
	"trillion":        experiments.Trillion,
}

// order fixes the "all" sequence to the paper's presentation order, with
// the stage-sweep extensions last.
var order = []string{
	"fig1", "table1", "table2", "fig2", "fig3", "fig4",
	"fig5", "fig6", "fig7", "fig8", "commvolume", "ablations",
	"stagememory", "stagesweep", "stagethroughput", "accumsweep", "trillion",
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if _, err := sweepConfig(); err != nil {
		fmt.Fprintf(os.Stderr, "zerobench: %v\n", err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		// A bare `zerobench -stage=N` or `-nodesize=S` means: run the
		// stage sweep.
		if *stageFlag == "" && *nodeFlag == 0 {
			usage()
			os.Exit(2)
		}
		args = []string{"stagesweep"}
	}
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		driver, ok := drivers[strings.ToLower(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "zerobench: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		t := driver()
		t.Render(os.Stdout)
	}
}

func usage() {
	names := make([]string, 0, len(drivers))
	for n := range drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "usage: zerobench [flags] <experiment>... | all\nexperiments: %s\n",
		strings.Join(names, " "))
	flag.PrintDefaults()
}
