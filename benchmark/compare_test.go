package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic writes a result file whose every end-to-end metric reads
// base×factor on each run, for one workload; scale lets single metrics
// differ.
func synthetic(t *testing.T, factors []float64, scale map[string]float64, failed int64) string {
	t.Helper()
	rep := report{}
	for _, f := range factors {
		res := &result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]measurement{}}
		for _, m := range endToEnd {
			v := 100 * f
			if s, ok := scale[m.Name]; ok {
				v *= s
			}
			res.Metrics[m.Name] = measurement{Value: v, Unit: m.Unit, Samples: 10}
		}
		rep.Runs = append(rep.Runs, map[string]*result{"pod_loop": res})
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	steady := []float64{1, 1.01, 0.99, 1.005, 0.995}
	noisy := []float64{0.7, 1.3, 1, 0.8, 1.2}
	cases := []struct {
		name     string
		old, new string
		exit     int
		contains []string
		absent   []string
	}{
		{
			name: "same code", old: synthetic(t, steady, nil, 0), new: synthetic(t, steady, nil, 0),
			exit: 0, absent: []string{"REGRESSION", "unresolved", "MORE FAILURES"},
		},
		{
			name: "lower-is-better metric 40% worse", old: synthetic(t, steady, nil, 0),
			new:  synthetic(t, steady, map[string]float64{"ack_p50_ms": 1.4}, 0),
			exit: 1, contains: []string{"ack_p50_ms", "REGRESSION"},
		},
		{
			name: "higher-is-better metric 40% lower", old: synthetic(t, steady, nil, 0),
			new:  synthetic(t, steady, map[string]float64{"traces_per_s": 0.6}, 0),
			exit: 1, contains: []string{"REGRESSION"},
		},
		{
			name: "higher-is-better metric 40% higher", old: synthetic(t, steady, nil, 0),
			new:  synthetic(t, steady, map[string]float64{"traces_per_s": 1.4}, 0),
			exit: 0, contains: []string{"better"}, absent: []string{"REGRESSION"},
		},
		{
			name: "within the bound", old: synthetic(t, steady, nil, 0),
			new:  synthetic(t, steady, map[string]float64{"ack_p50_ms": 1.2}, 0),
			exit: 0, absent: []string{"REGRESSION"},
		},
		{
			name: "a tighter bound on allocation", old: synthetic(t, steady, nil, 0),
			new:  synthetic(t, steady, map[string]float64{"alloc_b_per_trace": 1.22}, 0),
			exit: 1, contains: []string{"alloc_b_per_trace", "REGRESSION"},
		},
		{
			name: "spread wider than the bound", old: synthetic(t, noisy, nil, 0),
			new:  synthetic(t, noisy, map[string]float64{"ack_p50_ms": 1.4}, 0),
			exit: 0, contains: []string{"unresolved"}, absent: []string{"REGRESSION"},
		},
		{
			name: "more failed operations", old: synthetic(t, steady, nil, 0), new: synthetic(t, steady, nil, 3),
			exit: 1, contains: []string{"MORE FAILURES"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if got := compareFiles(tc.old, tc.new, &out, &errOut); got != tc.exit {
				t.Errorf("exit %d, want %d\n%s%s", got, tc.exit, out.String(), errOut.String())
			}
			for _, s := range tc.contains {
				if !strings.Contains(out.String(), s) {
					t.Errorf("output lacks %q:\n%s", s, out.String())
				}
			}
			for _, s := range tc.absent {
				if strings.Contains(out.String(), s) {
					t.Errorf("output has %q:\n%s", s, out.String())
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 5, 6})
	for i, pair := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %v, Python gives %v", i+1, pair[0], pair[1])
		}
	}
	q1, _, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
	if s := spread([]float64{4}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

// TestQuietQuartile pins which side of a run's samples a metric reports.
func TestQuietQuartile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // quartiles 3 and 7
	if got := quiet(xs, "lower"); got != 3 {
		t.Errorf("quiet quartile of a metric better lower = %v, want 3", got)
	}
	if got := quiet(xs, "higher"); got != 7 {
		t.Errorf("quiet quartile of a metric better higher = %v, want 7", got)
	}
	if xs[0] != 9 {
		t.Error("quiet reordered its argument")
	}
}
