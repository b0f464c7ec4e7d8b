package softborg

// E17 — the overload-proof hive (PR 9): a sharded fleet with admission
// control and rarity-priced load shedding armed is driven at 10× its
// comfortable rate through a flash-crowd arrival curve while slow-loris
// and garbage clients squat its connections. The claims under test: peak
// memory stays within budget, p99 ack latency stays within 10× the
// unloaded run, coverage keeps (monotonically) growing, the shed ledger
// shows duplicates and covered work were dropped — and every injected
// first-sight failure still landed in a failure table.

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/hive"
	"repro/internal/wire"
)

// e17Admission is the protection profile every E17 grid point runs with:
// tight enough that 10× overload provably trips it, loose enough that the
// 1× point clears it without a single busy reply mattering.
func e17Admission() wire.Admission {
	return wire.Admission{
		SessionRate:     50000,
		SessionBurst:    4096,
		ConnQueueBytes:  16 << 10,
		TotalQueueBytes: 32 << 10,
		FrameTimeout:    150 * time.Millisecond,
		MaxConns:        256,
		MaxHalfOpen:     16,
	}
}

// e17Scenario builds one grid point. overload scales the arrival curve;
// hostile adds the flash crowd, the connection squatters, and the
// pathological tree shapes.
func e17Scenario(overload float64, hostile bool) chaos.Scenario {
	sc := chaos.Scenario{
		Hives: 3, Programs: 4, Seed: 17,
		Ticks: 8, BatchesPerTick: 2, BatchSize: 12,
		Overload:           overload,
		Admission:          e17Admission(),
		Shed:               &hive.ShedPolicy{Watermark: 0.25, RarityFloor: 2},
		FirstSightFailures: 3,
	}
	if hostile {
		sc.Arrival = chaos.FlashCrowd(0.5, 0.15, 3)
		sc.SlowLoris = 2
		sc.Garbage = 2
		sc.Pathological = true
	}
	return sc
}

func checkMonotoneCoverage(t testing.TB, label string, cov []int) {
	t.Helper()
	for i := 1; i < len(cov); i++ {
		if cov[i] < cov[i-1] {
			t.Fatalf("%s: coverage regressed at tick %d: %v", label, i, cov)
		}
	}
	if len(cov) == 0 || cov[len(cov)-1] == 0 {
		t.Fatalf("%s: fleet covered nothing: %v", label, cov)
	}
}

func TestE17OverloadGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two real fleets")
	}
	base, err := chaos.Run(e17Scenario(1, false))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.Submitted == 0 || base.Failed != 0 {
		t.Fatalf("baseline not clean: %+v", base)
	}
	checkMonotoneCoverage(t, "baseline", base.Coverage)

	over, err := chaos.Run(e17Scenario(10, true))
	if err != nil {
		t.Fatalf("overload: %v", err)
	}
	t.Logf("baseline: p50=%v p99=%v heap=%dMB", base.P50, base.P99, base.PeakHeapBytes>>20)
	t.Logf("overload: p50=%v p99=%v heap=%dMB submitted=%d failed=%d busy=%d",
		over.P50, over.P99, over.PeakHeapBytes>>20, over.Submitted, over.Failed, over.BusyErrors)
	t.Logf("overload shed: %+v admission: %+v", over.Shed, over.Admission)

	// Memory budget: a 3-hive fleet under 10× hostile load must not
	// balloon — the queues are byte-bounded and the shedder refuses the
	// work that would only grow the tree's duplicate mass.
	if budget := uint64(1 << 30); over.PeakHeapBytes > budget {
		t.Fatalf("peak heap %d bytes over the %d budget", over.PeakHeapBytes, budget)
	}
	// Latency: p99 within 10× the unloaded fleet, floored generously so a
	// noisy CI baseline in the tens of microseconds cannot flake the run.
	limit := 10 * base.P99
	if floor := 2 * time.Second; limit < floor {
		limit = floor
	}
	if over.P99 > limit {
		t.Fatalf("overload p99 %v exceeds %v (10× baseline %v)", over.P99, limit, base.P99)
	}
	checkMonotoneCoverage(t, "overload", over.Coverage)
	// The protections must actually have engaged: something was shed or
	// explicitly declined, and the cheap classes were shed in bulk.
	if over.Shed.ShedDuplicate+over.Shed.ShedCovered == 0 {
		t.Fatalf("10× overload shed nothing: %+v", over.Shed)
	}
	// The observations overload must never cost: every injected
	// first-sight crash signature landed, admitted through the shedder's
	// first-sight carve-out.
	if over.FirstSightLanded != 3 {
		t.Fatalf("first-sight failures landed %d of 3", over.FirstSightLanded)
	}
}

// BenchmarkChaosOverload is the E17 measurement harness: one scenario run
// per iteration, reporting latency percentiles and the shed ledger as
// benchmark metrics. `go test -bench BenchmarkChaosOverload -benchtime 1x .`
func BenchmarkChaosOverload(b *testing.B) {
	for _, bc := range []struct {
		name     string
		overload float64
		hostile  bool
	}{
		{"over=1x", 1, false},
		{"over=10x", 10, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := chaos.Run(e17Scenario(bc.overload, bc.hostile))
				if err != nil {
					b.Fatal(err)
				}
				checkMonotoneCoverage(b, bc.name, res.Coverage)
				b.ReportMetric(float64(res.P50)/1e6, "p50_ms")
				b.ReportMetric(float64(res.P99)/1e6, "p99_ms")
				b.ReportMetric(float64(res.PeakHeapBytes)/(1<<20), "peak_heap_MB")
				b.ReportMetric(float64(res.Submitted), "batches")
				b.ReportMetric(float64(res.Shed.ShedDuplicate+res.Shed.ShedCovered), "shed")
				b.ReportMetric(float64(res.Shed.Deferred), "deferred")
				b.ReportMetric(float64(res.Admission.BusyReplies), "busy")
				b.ReportMetric(float64(res.Coverage[len(res.Coverage)-1]), "coverage")
			}
		})
	}
}
