package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// bounds is the share of the old median by which an end-to-end metric may
// get worse before -compare calls it a regression. BENCHMARK.json repeats
// them; smoke_test.go fails when the two drift apart.
var bounds = map[string]float64{
	"setup_s":           0.25,
	"traces_per_s":      0.25,
	"ack_p50_ms":        0.25,
	"guidance_p50_ms":   0.25,
	"cpu_us_per_trace":  0.25,
	"alloc_b_per_trace": 0.2,
	"recover_s":         0.25,
}

// values collects one metric of one workload over the runs of a report.
func (r *report) values(workload, metric string) []float64 {
	var xs []float64
	for _, set := range r.Runs {
		if res := set[workload]; res != nil {
			if m, ok := res.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// failureShare is failed over attempted operations of one workload, summed
// over the runs.
func (r *report) failureShare(workload string) float64 {
	var failed, attempted int64
	for _, set := range r.Runs {
		if res := set[workload]; res != nil {
			failed += res.Failed
			attempted += res.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

func (r *report) workloads() []string {
	seen := map[string]bool{}
	for _, set := range r.Runs {
		for name := range set {
			seen[name] = true
		}
	}
	var names []string
	for _, sp := range specs {
		if seen[sp.name] {
			names = append(names, sp.name)
		}
	}
	return names
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &r, nil
}

// verdict judges one workload × metric pairing: the new median against the
// old by the metric's bound. Where either side's own spread is wider than
// the bound the pairing is unresolved, unless every new run reads better
// than every old run or worse than every old run by more than the bound.
func verdict(m metric, bound float64, old, new []float64) (oldMed, newMed, delta float64, word string) {
	_, oldMed, _ = quartiles(old)
	_, newMed, _ = quartiles(new)
	delta = ratio(newMed-oldMed, oldMed)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	so, sn := sortedCopy(old), sortedCopy(new)
	allBetter := sn[len(sn)-1] < so[0]
	if m.Better == "higher" {
		allBetter = sn[0] > so[len(so)-1]
	}
	switch {
	case (spread(old) > bound || spread(new) > bound) && !allBetter:
		return oldMed, newMed, delta, "unresolved"
	case worse > bound:
		return oldMed, newMed, delta, "REGRESSION"
	case worse < -bound:
		return oldMed, newMed, delta, "better"
	}
	return oldMed, newMed, delta, "same"
}

// compareFiles prints, per workload × end-to-end metric, the old and new
// medians, their difference and the bound, and returns non-zero when any
// pairing regressed or a workload's failure share rose.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readReport(oldPath)
	if err == nil && old.Env.Traced {
		err = fmt.Errorf("%s: taken with tracing on; end-to-end metrics are compared untraced", oldPath)
	}
	var cur *report
	if err == nil {
		cur, err = readReport(newPath)
	}
	if err == nil && cur.Env.Traced {
		err = fmt.Errorf("%s: taken with tracing on; end-to-end metrics are compared untraced", newPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tdelta\tbound\tverdict")
	bad := 0
	for _, w := range old.workloads() {
		for _, m := range endToEnd {
			o, n := old.values(w, m.Name), cur.values(w, m.Name)
			if len(o) == 0 || len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tmissing\n", w, m.Name)
				bad++
				continue
			}
			oldMed, newMed, delta, word := verdict(m, bounds[m.Name], o, n)
			if word == "REGRESSION" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				w, m.Name, oldMed, m.Unit, newMed, m.Unit, 100*delta, 100*bounds[m.Name], word)
		}
		if of, nf := old.failureShare(w), cur.failureShare(w); nf > of {
			fmt.Fprintf(tw, "%s\tfailed/attempted\t%.4g\t%.4g\t\t\tMORE FAILURES\n", w, of, nf)
			bad++
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d pairing(s) regressed, went missing or failed more\n", bad)
		return 1
	}
	return 0
}

// printSpread is the table of -repeat: per workload × metric the median,
// the quartiles and the spread between them as a share of the median.
func printSpread(w io.Writer, rep report, traced bool) {
	decl := endToEnd
	if traced {
		decl = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tunit\truns\n")
	for _, name := range rep.workloads() {
		for _, m := range decl {
			xs := rep.values(name, m.Name)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%s\t%d\n", name, m.Name, q2, q1, q3, 100*spread(xs), m.Unit, len(xs))
		}
	}
	tw.Flush()
}
