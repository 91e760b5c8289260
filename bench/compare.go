package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Verdicts of one workload × end-to-end metric, reference report against
// candidate report.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the resolution: the change cannot be told from noise
)

// resolution is the smallest change of each end-to-end metric, as a share of
// the reference median, that -compare calls better or worse. These are the
// figures a performance claim is held to; the bounds of BENCHMARK.json are
// wider because a driver rejects a change on them outright, so they have to
// sit clear of a busy neighbour on the host. Where the runs of either report
// spread wider than the resolution the verdict is unresolved, not same.
var resolution = map[string]float64{
	"tokens_per_s":             0.05,
	"step_ms_p50":              0.05,
	"step_ms_p95":              0.10,
	"setup_s":                  0.25,
	"wire_bytes_per_rank_step": 0, // a count: any change is a change
	"peak_rss_mb":              0.05,
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here matches one computed by a driver in Python. Fewer than two
// values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// judge compares the candidate's values of one metric with the reference's:
// how much worse the candidate's median is as a share of the reference's,
// and what that means at the metric's resolution.
func judge(d metricDef, ref, cand []float64) (worseBy float64, verdict string) {
	a, b, res := median(ref), median(cand), resolution[d.Name]
	if a != 0 {
		worseBy = (b - a) / a
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case spread(ref) > res || spread(cand) > res:
		return worseBy, verdictUnresolved
	case worseBy > res:
		return worseBy, verdictWorse
	case worseBy < -res:
		return worseBy, verdictBetter
	}
	return worseBy, verdictSame
}

// untracedValues gathers one metric of one workload over a report's
// untraced runs.
func untracedValues(rep report, workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Results {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func failedShare(rep report, workload string) float64 {
	var failed, attempted int
	for _, r := range rep.Results {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// runBudgets lists the distinct -seconds of a report's runs. The step counts
// follow from it, so runs of different budgets measured different work.
func runBudgets(rep report) []float64 {
	var out []float64
	for _, r := range rep.Results {
		if !slices.Contains(out, r.Seconds) {
			out = append(out, r.Seconds)
		}
	}
	return out
}

// compareReports prints one verdict per workload × end-to-end metric and
// returns an error when the reports cannot be compared or anything got
// worse. Reports from different machines, or of runs with different
// -seconds, are refused, not passed.
func compareReports(w io.Writer, ref, cand report) error {
	if a, b := ref.Fingerprint.machine(), cand.Fingerprint.machine(); a != b {
		return fmt.Errorf("refusing to compare across machines:\n  reference: %s\n  candidate: %s", a, b)
	}
	if a, b := runBudgets(ref), runBudgets(cand); len(a) != 1 || !slices.Equal(a, b) {
		return fmt.Errorf("refusing to compare runs of different -seconds (different step counts): reference %v, candidate %v", a, b)
	}
	fmt.Fprintf(w, "reference git %s seed %d, candidate git %s seed %d, on %s\n",
		ref.Fingerprint.GitSHA, ref.Fingerprint.Seed, cand.Fingerprint.GitSHA, cand.Fingerprint.Seed, ref.Fingerprint.machine())
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "reference", "candidate", "worse by", "within", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := untracedValues(ref, wl.Name, d.Name), untracedValues(cand, wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-16s %-26s missing from a report: %s\n", wl.Name, d.Name, verdictUnresolved)
				continue
			}
			by, verdict := judge(d, a, b)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wl.Name, d.Name, median(a), median(b), 100*by, 100*resolution[d.Name], verdict)
		}
		fa, fb := failedShare(ref, wl.Name), failedShare(cand, wl.Name)
		verdict := verdictSame
		if fb > fa {
			verdict = verdictWorse
			worse++
		} else if fb < fa {
			verdict = verdictBetter
		}
		fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %9s %7s  %s\n", wl.Name, "failed_share", fa, fb, "", "0", verdict)
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs got worse", worse)
	}
	return nil
}

func compareFiles(w io.Writer, refPath, candPath string) error {
	ref, err := readReport(refPath)
	if err != nil {
		return err
	}
	cand, err := readReport(candPath)
	if err != nil {
		return err
	}
	return compareReports(w, ref, cand)
}
