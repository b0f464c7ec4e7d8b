package chaos

import "math"

// Arrival maps a tick in [0, ticks) to a load multiplier >= 0. The
// scenario driver multiplies it with the scenario's base rate and
// overload factor, so an Arrival describes only the *shape* of demand
// over time — steady or bursty — independent of its magnitude.
type Arrival func(tick, ticks int) float64

// Steady is constant demand: the control shape overload factors are
// measured against.
func Steady() Arrival {
	return func(int, int) float64 { return 1 }
}

// FlashCrowd is baseline demand with a Gaussian burst: peakAt and width
// are fractions of the run (peak position and standard deviation), and
// the multiplier reaches magnitude at the peak. The shape every
// launch-day outage graph shares.
func FlashCrowd(peakAt, width, magnitude float64) Arrival {
	if width <= 0 {
		width = 0.1
	}
	return func(tick, ticks int) float64 {
		if ticks <= 1 {
			return magnitude
		}
		x := float64(tick) / float64(ticks-1)
		d := (x - peakAt) / width
		return 1 + (magnitude-1)*math.Exp(-d*d/2)
	}
}
