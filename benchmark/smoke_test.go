package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestWorkloadsEmitDeclaredMetrics runs every workload, untraced and traced,
// at smoke size, and holds each run to the result contract: correct, no
// failed operation, exactly the declared metric names (measurements.set
// panics on a second emission of one name), end-to-end values never zero.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			sp, traced := sp, traced
			label := sp.name + "/untraced"
			decl := endToEnd
			if traced {
				label, decl = sp.name+"/traced", perLayer
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				rc := &runCtx{sp: sp, seed: 1, seconds: 0.75, traced: traced, sz: smokeSizes, root: t.TempDir()}
				if traced {
					rc.spans = rc.root + "/spans.jsonl"
				}
				res := runWorkload(rc)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Error)
				}
				if len(res.Metrics) != len(decl) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decl))
				}
				for _, d := range decl {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", d.Name)
					case !name.MatchString(d.Name):
						t.Errorf("metric name %q outside the contract's alphabet", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v on %s; it must never be zero", d.Name, m.Value, sp.name)
					}
				}
				if traced {
					if info, err := os.Stat(rc.spans); err != nil || info.Size() == 0 {
						t.Errorf("span file missing or empty: %v", err)
					}
				}
				if left, _ := os.ReadDir(rc.root); len(left) > 1 || (len(left) == 1 && !traced) {
					t.Errorf("run left %d entries in its directory", len(left))
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesBinary fails when BENCHMARK.json and the names,
// units, directions, bounds and workloads compiled into the binary drift
// apart.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	var wantW, wantE, wantL []entry
	for _, sp := range specs {
		wantW = append(wantW, entry{Name: sp.name, Why: sp.why})
	}
	for _, m := range endToEnd {
		b, ok := bounds[m.Name]
		if !ok || b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, b)
		}
		wantE = append(wantE, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &b})
	}
	for _, m := range perLayer {
		wantL = append(wantL, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("workloads differ:\nfile   %+v\nbinary %+v", file.Workloads, wantW)
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("end_to_end differs from metrics.go / compare.go")
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("per_layer differs from metrics.go")
	}
	if len(bounds) != len(endToEnd) {
		t.Errorf("%d bounds for %d end-to-end metrics", len(bounds), len(endToEnd))
	}
	for _, w := range file.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}
