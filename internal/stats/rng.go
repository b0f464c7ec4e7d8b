// Package stats holds the deterministic RNG every SoftBorg component draws
// its reproducible randomness from.
package stats

// RNG is a small deterministic pseudo-random number generator
// (SplitMix64-based) used wherever SoftBorg needs reproducible randomness:
// workload generation, sampling decisions, schedule perturbation, solver
// tie-breaking. We deliberately avoid math/rand's global state so that every
// component owns its stream and experiments replay bit-identically.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new RNG whose stream is independent of (but determined by)
// the parent's current state. Useful for handing sub-streams to components.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s > 0
// using inverse-CDF over precomputed weights held by the caller via ZipfTable.
type ZipfTable struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over ranks [0, n) with exponent s. Rank 0 is
// the most popular. It panics if n <= 0 or s <= 0.
func NewZipf(rng *RNG, n int, s float64) *ZipfTable {
	if n <= 0 || s <= 0 {
		panic("stats: invalid Zipf parameters")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &ZipfTable{cdf: cdf, rng: rng}
}

// Next draws a rank in [0, n).
func (z *ZipfTable) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pow is a positive-base power: repeated multiplication for small integer
// exponents, math.Pow (mathpow.go) otherwise.
func pow(base, exp float64) float64 {
	// base > 0 always holds for Zipf ranks.
	result := 1.0
	// Fast path for small integer exponents (common: s=1 or s=2).
	if exp == float64(int(exp)) && exp >= 0 && exp < 8 {
		for i := 0; i < int(exp); i++ {
			result *= base
		}
		return result
	}
	return mathPow(base, exp)
}
