package chaos

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/leaktest"
)

func TestArrivalShapes(t *testing.T) {
	const ticks = 17
	if got := Steady()(5, ticks); got != 1 {
		t.Fatalf("steady = %v", got)
	}

	fc := FlashCrowd(0.5, 0.1, 8)
	peak, peakAt := 0.0, -1
	for tick := 0; tick < ticks; tick++ {
		m := fc(tick, ticks)
		if m < 1 {
			t.Fatalf("flash crowd dipped below baseline at tick %d: %v", tick, m)
		}
		if m > peak {
			peak, peakAt = m, tick
		}
	}
	if math.Abs(peak-8) > 1e-9 || peakAt != ticks/2 {
		t.Fatalf("flash crowd peaked at %v (tick %d), want 8 at tick %d", peak, peakAt, ticks/2)
	}
	if edge := fc(0, ticks); edge > 1.01 {
		t.Fatalf("flash crowd edge = %v, want ~baseline", edge)
	}
}

func TestHostileFramesDeterministic(t *testing.T) {
	a, b := HostileFrames(7), HostileFrames(7)
	if len(a) != len(b) || len(a) < 15 {
		t.Fatalf("corpus sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d differs between equal seeds", i)
		}
	}
	if c := HostileFrames(8); bytes.Equal(a[len(a)-1], c[len(c)-1]) {
		t.Fatal("random-soup tail identical across different seeds")
	}
}

// TestRunMildScenario is the harness smoke: a tiny unloaded fleet must
// complete with zero failures and strictly growing-then-flat coverage.
func TestRunMildScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real fleet")
	}
	leaktest.Check(t)
	res, err := Run(Scenario{
		Hives: 2, Programs: 3, Seed: 11, Ticks: 6,
		BatchesPerTick: 2, BatchSize: 8,
		FirstSightFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted == 0 || res.Failed != 0 {
		t.Fatalf("mild run: submitted=%d failed=%d", res.Submitted, res.Failed)
	}
	for i := 1; i < len(res.Coverage); i++ {
		if res.Coverage[i] < res.Coverage[i-1] {
			t.Fatalf("coverage regressed: %v", res.Coverage)
		}
	}
	if last := res.Coverage[len(res.Coverage)-1]; last == 0 {
		t.Fatal("fleet covered nothing")
	}
	if res.FirstSightLanded != 2 {
		t.Fatalf("first-sight failures landed %d of 2", res.FirstSightLanded)
	}
	if res.P99 <= 0 {
		t.Fatalf("no latency measured: %+v", res)
	}
}
