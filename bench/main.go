// Command bench is the repository's one benchmark: four workloads, each run
// untraced for the end-to-end metrics a user of the system sees and traced
// for the per-layer breakdown under them. See README.md beside this file.
//
//	bench                                   every workload, both runs, one report
//	bench -workload W -trace 0|1 -seed N    one run; the last line is the result
//	bench -compare a.json b.json            verdict per workload × end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultSeed    = 1
	defaultSeconds = 15 // run_seconds of BENCHMARK.json
)

// fingerprint says where and from what a report was measured. Two reports
// are comparable only when the machine part matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
}

func (f fingerprint) machine() string {
	return fmt.Sprintf("%s, %d cpus, GOMAXPROCS %d, %s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func takeFingerprint(seed int64) fingerprint {
	f := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: "unknown", Seed: seed,
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				f.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// Outside a git checkout, or without git, the sha stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		f.GitSHA = strings.TrimSpace(string(out))
	}
	return f
}

// report is what a result file holds: one fingerprint, any number of runs.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Results     []result    `json:"results"`
}

func writeReport(path string, rep report) error {
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	blob, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: every workload, each in child processes)")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		seed    = flag.Int64("seed", defaultSeed, "drives model init, synthetic batches and the corpus shuffle")
		seconds = flag.Float64("seconds", defaultSeconds, "run budget: step counts are fixed at the reference box's rate for this long")
		jsonOut = flag.String("json", "", "write the report here (default with no -workload: <out>/result.json)")
		outDir  = flag.String("out", "out", "directory for traces, reports and temp dirs")
		runs    = flag.Int("runs", 1, "with no -workload: untraced runs per workload, run i seeded seed+i")
		compare = flag.Bool("compare", false, "compare two report files given as arguments")
	)
	flag.Parse()
	args := flag.Args()
	switch {
	case *compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two report files, got %d", len(args))
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case len(args) > 0:
		return fmt.Errorf("unexpected arguments %q", args)
	case *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1):
		return fmt.Errorf("want -seconds > 0, -runs ≥ 1 and -trace 0 or 1")
	case *name == "":
		if *jsonOut == "" {
			*jsonOut = filepath.Join(*outDir, "result.json")
		}
		return runAll(*seed, *seconds, *runs, *jsonOut, *outDir)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir, probeReps: probeReps}
	return runOne(w, opts, *jsonOut)
}

// runOne runs one workload in this process, prints every metric by name with
// its unit, and ends standard output with the one-line result.
func runOne(w workload, opts runOpts, jsonOut string) error {
	fp := takeFingerprint(opts.seed)
	fmt.Printf("workload %s  seed %d  seconds %g  traced %v\n", w.Name, opts.seed, opts.seconds, opts.traced)
	fmt.Printf("machine  %s  git %s\n", fp.machine(), fp.GitSHA)
	res, err := runWorkload(w, opts)
	if err != nil {
		return err
	}
	printResult(res)
	if jsonOut != "" {
		if err := writeReport(jsonOut, report{Fingerprint: fp, Results: []result{res}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(res result) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("  %-40s %16.6g ratio  (%d of %d operations)\n", "failed_share", res.FailedShare, res.Failed, res.Attempted)
	if !res.Traced {
		fmt.Printf("  %-40s %16d count\n", "step_time_samples", res.Samples)
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %s", verdict, c.Name)
		if c.Note != "" {
			fmt.Printf(" (%s)", c.Note)
		}
		fmt.Println()
	}
}

// runAll runs every workload in its own child process of this binary, so
// peak_rss_mb is per workload and no workload warms another's pools:
// `runs` untraced runs, then one traced run. It prints every metric and
// writes one report.
func runAll(seed int64, seconds float64, runs int, jsonOut, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Fingerprint: takeFingerprint(seed)}
	fmt.Printf("machine  %s  git %s\n", rep.Fingerprint.machine(), rep.Fingerprint.GitSHA)
	failed := 0
	child := func(w workload, trace int, seed int64) error {
		part := filepath.Join(outDir, fmt.Sprintf("%s.%d.json", w.Name, trace))
		cmd := exec.Command(self,
			"-workload", w.Name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-out", outDir, "-json", part)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run() // a child that failed its checks still wrote its report
		one, err := readReport(part)
		if err != nil {
			if runErr != nil {
				return fmt.Errorf("%s: %w", w.Name, runErr)
			}
			return err
		}
		os.Remove(part) //nolint:errcheck // folded into the one report below
		for _, res := range one.Results {
			fmt.Printf("\n%s  seed %d  traced %v\n", res.Workload, res.Seed, res.Traced)
			printResult(res)
			if !res.Correct {
				failed++
			}
		}
		rep.Results = append(rep.Results, one.Results...)
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := child(w, 0, seed+int64(i)); err != nil {
				return err
			}
		}
		if err := child(w, 1, seed); err != nil {
			return err
		}
	}
	if err := writeReport(jsonOut, rep); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", jsonOut)
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}
