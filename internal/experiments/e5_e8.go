package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hive"
	"repro/internal/pod"
	"repro/internal/population"
	"repro/internal/prog"
	"repro/internal/proggen"
)

// buildDining builds the canonical circular-wait deadlock program.
func buildDining() *prog.Program {
	b := prog.NewBuilder("dining2", 0).SetLocks(2)
	b.Thread()
	b.Lock(0).Yield().Lock(1).Unlock(1).Unlock(0).Halt()
	b.Thread()
	b.Lock(1).Yield().Lock(0).Unlock(0).Unlock(1).Halt()
	return b.MustBuild()
}

// E5DeadlockImmunity reproduces the §3.3 deadlock scenario (ref [16]): one
// pod's deadlock becomes a fleet-wide immunity fix; recurrence drops to
// zero after distribution.
func E5DeadlockImmunity() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "fleet deadlock rate before/after immunity distribution",
		Columns: []string{"day", "runs", "deadlocks", "deadlock-rate", "fixes", "immunity-vetoes"},
	}
	p := buildDining()
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		return nil, err
	}

	const fleet = 25
	const runsPerDay = 20
	const days = 6
	pods := make([]*pod.Pod, fleet)
	for i := range pods {
		pd, err := pod.New(pod.Config{
			Program: p, ID: fmt.Sprintf("pod-%d", i), Hive: h,
			Seed: uint64(i) + 1, Preempt: 0.8, BatchSize: 4, Salt: "fleet",
		})
		if err != nil {
			return nil, err
		}
		pods[i] = pd
	}

	var prevRuns, prevFailures, prevVetoes int64
	for day := 0; day < days; day++ {
		for _, pd := range pods {
			for r := 0; r < runsPerDay; r++ {
				if _, err := pd.RunOnce(nil); err != nil {
					return nil, err
				}
			}
			if err := pd.Flush(); err != nil {
				return nil, err
			}
		}
		// End of day: pods sync fixes (the distribution step).
		for _, pd := range pods {
			if err := pd.SyncFixes(); err != nil {
				return nil, err
			}
		}
		var runs, failures, vetoes int64
		for _, pd := range pods {
			st := pd.Stats()
			runs += st.Runs
			failures += st.Failures
			vetoes += st.ImmunityVetoes
		}
		hs, err := h.ProgramStats(p.ID)
		if err != nil {
			return nil, err
		}
		dayRuns := runs - prevRuns
		dayFailures := failures - prevFailures
		dayVetoes := vetoes - prevVetoes
		prevRuns, prevFailures, prevVetoes = runs, failures, vetoes
		t.addRow(d(int64(day)), d(dayRuns), d(dayFailures),
			f4(float64(dayFailures)/float64(dayRuns)), d(int64(hs.FixCount)), d(dayVetoes))
		if day == 0 {
			t.metric("day0_deadlocks", float64(dayFailures))
		}
		if day == days-1 {
			t.metric("final_deadlocks", float64(dayFailures))
		}
	}
	t.Notes = "after the first day's deadlock reports mint an immunity signature, the synced fleet's deadlock rate drops to zero; vetoes show the gate actively steering schedules"
	return t, nil
}

// E6BugDensity reproduces the headline claim (§1/§2): closing the loop with
// collective recycling yields an order-of-magnitude (or more) reduction in
// residual failure rate, while WER-style crash reporting alone (no fixes)
// leaves the rate flat.
func E6BugDensity() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "residual failure rate over a simulated deployment",
		Columns: []string{"day", "none", "wer", "cbi", "softborg", "sb-fixes", "sb-averted"},
	}
	corpus := make([]core.ProgramUnderTest, 4)
	for i := range corpus {
		p, bugs, err := proggen.Generate(proggen.Spec{
			Seed: uint64(2000 + i), Depth: 5, NumInputs: 1, TriggerWidth: 12,
			Bugs: []proggen.BugKind{proggen.BugCrash, proggen.BugAssert},
		})
		if err != nil {
			return nil, err
		}
		corpus[i] = core.ProgramUnderTest{Prog: p, Bugs: bugs}
	}
	const days = 8
	run := func(mode core.Mode) ([]core.DayMetrics, error) {
		sim, err := core.NewSimulation(core.Config{
			Seed:       3,
			Programs:   corpus,
			Population: population.Config{Users: 40, MeanRunsPerDay: 10},
			Days:       days,
			Mode:       mode,
		})
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}
	none, err := run(core.ModeNone)
	if err != nil {
		return nil, err
	}
	werRows, err := run(core.ModeWER)
	if err != nil {
		return nil, err
	}
	cbiRows, err := run(core.ModeCBI)
	if err != nil {
		return nil, err
	}
	sb, err := run(core.ModeSoftBorg)
	if err != nil {
		return nil, err
	}
	for day := 0; day < days; day++ {
		t.addRow(d(int64(day)), f4(none[day].FailureRate), f4(werRows[day].FailureRate),
			f4(cbiRows[day].FailureRate), f4(sb[day].FailureRate),
			d(int64(sb[day].FixesCumulative)), d(sb[day].Averted))
	}
	early := sb[0].FailureRate
	late := sb[days-1].FailureRate
	reduction := 0.0
	if late > 0 {
		reduction = early / late
	}
	t.metric("initial_rate", early)
	t.metric("final_rate", late)
	t.metric("reduction_factor", reduction)
	flat := werRows[days-1].FailureRate
	t.Notes = fmt.Sprintf("SoftBorg failure rate: %.4f -> %.4f; WER and CBI stay ≈%.4f — they see (sampled) failures but ship no fixes", early, late, flat)
	return t, nil
}

// E7CaptureOverhead reproduces §3.1's recording-cost analysis: external-only
// capture records far fewer events than full capture (the deterministic
// remainder is reconstructible), and sampling cuts cost further at the price
// of path ambiguity. The paper's coordinated sampling, whose fragments the
// hive narrows back into one path, is not a row: a fully merged path costs k
// runs of it, more bytes than one external-only run (EXPERIMENTS.md E41).
func E7CaptureOverhead() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "capture cost by instrumentation mode (fixed 2000-run workload)",
		Columns: []string{"mode", "events/run", "bytes/run", "relative-steps"},
	}
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 1007, Depth: 6, Loops: 2, Syscalls: 1, NumInputs: 2, DetBranches: 20,
	})
	if err != nil {
		return nil, err
	}
	rows, err := CaptureCostRows(p, 2000)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.addRow(r.Mode, f2(r.EventsPerRun), f2(r.BytesPerRun), f3(r.RelativeSteps))
		t.metric("bytes_"+r.Mode, r.BytesPerRun)
	}
	t.Notes = "the VM executes the same instruction count regardless of observer, so cost is reported as recorded events and shipped bytes (columnar frames of 16 traces, the pod's default BatchSize, divided per run); external-only capture preserves full reconstructability (E1/hive) at a fraction of full capture's volume"
	return t, nil
}

// E8DynamicPartitioning reproduces §4's partitioning argument: static
// splits of an unknown tree straggle; dynamic (shared-queue) partitioning
// balances; Markowitz allocation tracks estimates.
func E8DynamicPartitioning() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "execution-tree partitioning across hive nodes (8 nodes, 6 programs)",
		Columns: []string{"policy", "mean-imbalance", "mean-makespan", "complete"},
	}
	modes := []cluster.Mode{cluster.Static, cluster.Dynamic, cluster.Markowitz}
	sums := make(map[cluster.Mode]float64)
	makespans := make(map[cluster.Mode]float64)
	completes := make(map[cluster.Mode]int)
	const programs = 6
	for seed := uint64(0); seed < programs; seed++ {
		p, _, err := proggen.Generate(proggen.Spec{Seed: 3000 + seed, Depth: 5, NumInputs: 2})
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			res, err := cluster.Explore(p, 8, mode)
			if err != nil {
				return nil, err
			}
			sums[mode] += res.Imbalance
			makespans[mode] += float64(res.Makespan)
			if res.Complete {
				completes[mode]++
			}
		}
	}
	for _, mode := range modes {
		t.addRow(mode.String(), f3(sums[mode]/programs), f2(makespans[mode]/programs),
			fmt.Sprintf("%d/%d", completes[mode], programs))
		t.metric("imbalance_"+mode.String(), sums[mode]/programs)
	}
	t.Notes = "imbalance = makespan / mean node load (1.0 is perfect); dynamic partitioning less than halves static's imbalance yet stays well above 1.0 at this scale, and Markowitz allocation lands between the two; static splits leave nodes idle, matching the paper's undecidability argument for static partitioning"
	return t, nil
}
