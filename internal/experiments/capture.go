package experiments

import (
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CaptureCostRow is one instrumentation mode's measured recording cost.
type CaptureCostRow struct {
	// Mode labels the instrumentation configuration.
	Mode string
	// EventsPerRun is the mean recorded branch events per execution.
	EventsPerRun float64
	// BytesPerRun is the mean shipped trace size: the bytes of the columnar
	// frames of shipFrame traces the runs ship in, divided per run.
	BytesPerRun float64
	// RelativeSteps is executed VM steps relative to the uninstrumented
	// baseline (1.0 = identical; the VM's step count is observer-invariant,
	// so this column demonstrates semantic transparency).
	RelativeSteps float64
}

// CaptureCostRows measures recording cost for every capture mode over a
// fixed workload of runs executions (shared by experiment E7 and
// BenchmarkE7CaptureOverhead).
func CaptureCostRows(p *prog.Program, runs int) ([]CaptureCostRow, error) {
	type modeSpec struct {
		name string
		mode trace.CaptureMode
		rate float64
		off  bool
	}
	specs := []modeSpec{
		{name: "no-capture", off: true},
		{name: "full", mode: trace.CaptureFull},
		{name: "external-only", mode: trace.CaptureExternalOnly},
		{name: "sampled-10%", mode: trace.CaptureSampled, rate: 0.10},
	}

	var baselineSteps float64
	out := make([]CaptureCostRow, 0, len(specs))
	for _, spec := range specs {
		rng := stats.NewRNG(1234)
		var events, steps int64
		var shipped []*trace.Trace
		for i := 0; i < runs; i++ {
			input := make([]int64, p.NumInputs)
			for j := range input {
				input[j] = rng.Int63n(256)
			}
			cfg := prog.Config{Input: input}
			var col *trace.Collector
			if !spec.off {
				col = trace.NewCollector(p, spec.mode, spec.rate, uint64(i))
				cfg.Observer = col
			}
			m, err := prog.NewMachine(p, cfg)
			if err != nil {
				return nil, err
			}
			res := m.Run()
			steps += res.Steps
			if col != nil {
				tr := col.Finish("pod", uint64(i), res, input, trace.PrivacyHashed, "s")
				events += int64(len(tr.Branches))
				shipped = append(shipped, tr)
			}
		}
		bytes, err := frameBytes(p.ID, shipped)
		if err != nil {
			return nil, err
		}
		if spec.off {
			baselineSteps = float64(steps)
		}
		rel := 1.0
		if baselineSteps > 0 {
			rel = float64(steps) / baselineSteps
		}
		out = append(out, CaptureCostRow{
			Mode:          spec.name,
			EventsPerRun:  float64(events) / float64(runs),
			BytesPerRun:   float64(bytes) / float64(runs),
			RelativeSteps: rel,
		})
	}
	return out, nil
}

// shipFrame is the pod's default BatchSize: the byte columns of E7 and E10
// count traces as pods ship them, in columnar frames of this many traces.
const shipFrame = 16

// frameBytes is the size of traces shipped in order as columnar frames
// (trace.AppendBatch) of shipFrame traces each.
func frameBytes(programID string, traces []*trace.Trace) (int64, error) {
	var total int64
	var buf []byte
	for lo := 0; lo < len(traces); lo += shipFrame {
		var err error
		if buf, err = trace.AppendBatch(buf[:0], programID, traces[lo:min(lo+shipFrame, len(traces))]); err != nil {
			return 0, err
		}
		total += int64(len(buf))
	}
	return total, nil
}
