package core

import (
	"testing"

	"repro/internal/population"
	"repro/internal/proggen"
)

func corpus(t *testing.T, n int) []ProgramUnderTest {
	t.Helper()
	out := make([]ProgramUnderTest, n)
	for i := range out {
		p, bugs := proggen.MustGenerate(proggen.Spec{
			Seed: uint64(100 + i), Depth: 4,
			Bugs:         []proggen.BugKind{proggen.BugCrash},
			TriggerWidth: 16, // common enough to appear within a short sim
		})
		out[i] = ProgramUnderTest{Prog: p, Bugs: bugs}
	}
	return out
}

func runSim(t *testing.T, mode Mode, days int) []DayMetrics {
	t.Helper()
	sim, err := NewSimulation(Config{
		Seed:     9,
		Programs: corpus(t, 3),
		Population: population.Config{
			Users: 30, MeanRunsPerDay: 8,
		},
		Days: days,
		Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != days {
		t.Fatalf("rows = %d, want %d", len(rows), days)
	}
	return rows
}

func TestSimulationRunsAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNone, ModeWER, ModeCBI, ModeSoftBorg} {
		rows := runSim(t, mode, 2)
		for _, r := range rows {
			if r.Runs <= 0 {
				t.Errorf("%v day %d: no runs", mode, r.Day)
			}
		}
	}
}

func TestSoftBorgReducesFailureRate(t *testing.T) {
	const days = 6
	sb := runSim(t, ModeSoftBorg, days)
	wer := runSim(t, ModeWER, days)

	// Failures must occur at all for the comparison to mean anything.
	var sbEarly, werTotal, sbLate int64
	var werRuns, sbLateRuns int64
	sbEarly = sb[0].Failures
	for _, r := range wer {
		werTotal += r.Failures
		werRuns += r.Runs
	}
	for _, r := range sb[days/2:] {
		sbLate += r.Failures
		sbLateRuns += r.Runs
	}
	if werTotal == 0 {
		t.Fatal("WER fleet never failed; corpus too benign")
	}
	if sbEarly == 0 {
		t.Skip("SoftBorg fleet saw no early failures under this seed")
	}
	werRate := float64(werTotal) / float64(werRuns)
	sbLateRate := float64(sbLate) / float64(sbLateRuns)
	if sbLateRate >= werRate {
		t.Errorf("SoftBorg late failure rate %.4f >= WER steady rate %.4f", sbLateRate, werRate)
	}
	// Fixes must actually have shipped.
	if sb[days-1].FixesCumulative == 0 {
		t.Error("no fixes distributed over the horizon")
	}
	if sb[days-1].Averted == 0 {
		t.Error("no failures averted despite fixes")
	}
}

func TestWERSeesBucketsButShipsNothing(t *testing.T) {
	sim, err := NewSimulation(Config{
		Seed:       11,
		Programs:   corpus(t, 2),
		Population: population.Config{Users: 20, MeanRunsPerDay: 10},
		Days:       4,
		Mode:       ModeWER,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := sim.WER().Stats()
	if st.Reports == 0 {
		t.Skip("no failures under this seed")
	}
	if st.Buckets == 0 {
		t.Error("failures reported but not bucketed")
	}
	last := rows[len(rows)-1]
	if last.FixesCumulative != 0 {
		t.Error("WER mode distributed fixes")
	}
	if st.DroppedOK == 0 {
		t.Error("WER should be discarding OK executions")
	}
}

func TestCoverageGrowsWithPopulation(t *testing.T) {
	// E2's mechanism: a larger fleet covers more of the tree per day.
	coverage := func(users int) float64 {
		sim, err := NewSimulation(Config{
			Seed:       13,
			Programs:   corpus(t, 1),
			Population: population.Config{Users: users, MeanRunsPerDay: 6},
			Days:       2,
			Mode:       ModeSoftBorg,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows[len(rows)-1].EdgeCoverage
	}
	small := coverage(2)
	large := coverage(60)
	if large <= small {
		t.Errorf("coverage(60 users)=%.3f <= coverage(2 users)=%.3f", large, small)
	}
}

func TestSimulationDeterministic(t *testing.T) {
	a := runSim(t, ModeSoftBorg, 3)
	b := runSim(t, ModeSoftBorg, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("day %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGuidanceAcceleratesDiscovery(t *testing.T) {
	// A corpus with *narrow* triggers that a small fleet rarely hits
	// naturally: with daily steering the hive must know at least as many
	// failure signatures as without, never fewer.
	narrow := func() []ProgramUnderTest {
		p, bugs := proggen.MustGenerate(proggen.Spec{
			Seed: 501, Depth: 5, TriggerWidth: 2,
			Bugs: []proggen.BugKind{proggen.BugCrash},
		})
		return []ProgramUnderTest{{Prog: p, Bugs: bugs}}
	}
	run := func(guidancePerDay int) int {
		sim, err := NewSimulation(Config{
			Seed:           21,
			Programs:       narrow(),
			Population:     population.Config{Users: 6, MeanRunsPerDay: 4},
			Days:           3,
			Mode:           ModeSoftBorg,
			GuidancePerDay: guidancePerDay,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rows[len(rows)-1].DistinctFailures
	}
	without := run(0)
	with := run(10)
	if with < without {
		t.Fatalf("guided sim found %d signatures, unguided %d", with, without)
	}
	if with == 0 {
		t.Fatalf("guided simulation never found the narrow bug (unguided: %d)", without)
	}
}

func TestCBISamplingDefaults(t *testing.T) {
	sim, err := NewSimulation(Config{
		Seed:       5,
		Programs:   corpus(t, 1),
		Population: population.Config{Users: 5, MeanRunsPerDay: 4},
		Days:       1,
		Mode:       ModeCBI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := sim.CBI().Stats()
	if st.Runs == 0 {
		t.Fatal("CBI aggregator saw no runs")
	}
	if st.Predicates == 0 {
		t.Fatal("sparse sampling recorded no predicates at all")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSimulation(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewSimulation(Config{
		Programs:   corpus(t, 1),
		Population: population.Config{Users: 1},
		Mode:       Mode(99),
	}); err == nil {
		t.Error("unknown mode accepted")
	}
}
