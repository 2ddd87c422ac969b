package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, one per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges a candidate's samples against a baseline's under d's
// bound. A candidate is worse when its median is worse than the
// baseline's by more than the bound. When either side's quartile spread
// is wider than the bound the comparison cannot tell a regression from
// noise, so it is unresolved — unless every candidate sample beats every
// baseline sample. A gain counts only when the candidate wins at least
// nine tenths of the index-matched pairs (ties count for neither) and the
// medians differ by more than the baseline's quartile distance.
func verdict(base, cand []float64, d metricDef) string {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	// dir > 0 turns "candidate minus baseline" into "how much worse".
	dir := 1.0
	if d.Better == "higher" {
		dir = -1
	}
	mBase, mCand := median(base), median(cand)
	if spread(base) > d.Bound || spread(cand) > d.Bound {
		for _, c := range cand {
			for _, b := range base {
				if dir*(c-b) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictBetter
	}
	if dir*(mCand-mBase)/math.Abs(mBase) > d.Bound {
		return verdictWorse
	}
	n := len(base)
	if len(cand) < n {
		n = len(cand)
	}
	wins := 0
	for i := 0; i < n; i++ {
		if dir*(cand[i]-base[i]) < 0 {
			wins++
		}
	}
	q1, _, q3 := quartiles(base)
	if dir*(mCand-mBase) < 0 && float64(wins) >= 0.9*float64(n) && math.Abs(mCand-mBase) > q3-q1 {
		return verdictBetter
	}
	return verdictUnchanged
}

// sameHostClass refuses comparisons across host classes: timings from
// different CPUs, core counts or toolchains say nothing about a change.
func sameHostClass(a, b hostInfo) error {
	if a.NumCPU != b.NumCPU || a.GOARCH != b.GOARCH || a.CPUModel != b.CPUModel || a.GoVersion != b.GoVersion {
		return fmt.Errorf("refusing to compare different host classes: %d CPUs %s %q %s vs %d CPUs %s %q %s",
			a.NumCPU, a.GOARCH, a.CPUModel, a.GoVersion, b.NumCPU, b.GOARCH, b.CPUModel, b.GoVersion)
	}
	return nil
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one verdict per (workload, end-to-end metric) of
// candidate file b against baseline file a, and fails if any is worse.
func compareFiles(a, b string, w io.Writer) error {
	base, err := loadResults(a)
	if err != nil {
		return err
	}
	cand, err := loadResults(b)
	if err != nil {
		return err
	}
	if err := sameHostClass(base.Host, cand.Host); err != nil {
		return err
	}
	fmt.Fprintf(w, "baseline %s (revision %s), candidate %s (revision %s), seeds %d and %d\n",
		a, orUnknown(base.Host.GitRevision), b, orUnknown(cand.Host.GitRevision), base.Seed, cand.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline median [q1, q3]\tcandidate median [q1, q3]\tchange\tbound\tverdict")
	worse := 0
	for _, rb := range base.Workloads {
		var rc *report
		for i := range cand.Workloads {
			if cand.Workloads[i].Name == rb.Name {
				rc = &cand.Workloads[i]
			}
		}
		if rc == nil {
			fmt.Fprintf(tw, "%s\t(all)\t\t\t\t\tmissing from candidate\n", rb.Name)
			continue
		}
		for _, d := range endToEndMetrics {
			sb, sc := rb.EndToEnd[d.Name], rc.EndToEnd[d.Name]
			v := verdict(sb.Samples, sc.Samples, d)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				rb.Name, d.Name, sb.Median, sb.Q1, sb.Q3, sc.Median, sc.Q1, sc.Q3,
				100*(sc.Median-sb.Median)/math.Abs(sb.Median), 100*d.Bound, v)
		}
		v := verdictUnchanged
		if rc.FailedFrac > rb.FailedFrac {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.4g\t%.4g\t\tany increase\t%s\n", rb.Name, rb.FailedFrac, rc.FailedFrac, v)
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the baseline", worse)
	}
	return nil
}
