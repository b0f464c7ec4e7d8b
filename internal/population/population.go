// Package population models the end-user fleet whose "natural" executions
// SoftBorg recycles (paper §2): users with skewed, correlated input
// behaviour (Zipf-ian popularity, per-user regional bias), heterogeneous
// environments (distinct syscall seeds), and varying usage rates. The
// population is the reason aggregation wins: one tester draws from one
// distribution; a fleet samples many.
package population

import (
	"fmt"

	"repro/internal/prog"
	"repro/internal/stats"
)

// User is one simulated end user running one program instance (pod).
//
// A User is NOT safe for concurrent use: NextInput advances the user's
// private zipf/rng streams. Parallel fleet drivers must give each User to
// exactly one worker at a time (see core.Simulation's worker pool). Streams
// are fully independent across users — every User is seeded by its own RNG
// split at construction — so the per-user input sequence depends only on
// the population seed and that user's own call order, never on when other
// users draw.
type User struct {
	// ID names the user ("user-17").
	ID string
	// EnvSeed selects the user's environment (syscall model).
	EnvSeed uint64
	// RegionBase biases the user's inputs: users cluster around regions of
	// the input space, which is what makes any single user's coverage
	// narrow.
	RegionBase int64
	// RunsPerDay is the user's usage rate.
	RunsPerDay int

	zipf *stats.ZipfTable
	rng  *stats.RNG
}

// Syscalls returns the user's environment model.
func (u *User) Syscalls() prog.SyscallModel {
	return &prog.DeterministicSyscalls{Seed: u.EnvSeed}
}

// NextInput draws the user's next input vector over [0, domain) per element.
func (u *User) NextInput(arity int, domain int64) []int64 {
	out := make([]int64, arity)
	for i := range out {
		offset := int64(u.zipf.Next())
		if u.rng.Bool(0.5) {
			out[i] = mod(u.RegionBase+offset, domain)
		} else {
			out[i] = mod(u.RegionBase-offset, domain)
		}
	}
	return out
}

func mod(v, m int64) int64 {
	r := v % m
	if r < 0 {
		r += m
	}
	return r
}

// Config parameterizes a population.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Users is the fleet size.
	Users int
	// Domain is the input domain [0, Domain); defaults to 256.
	Domain int64
	// ZipfExponent controls input skew (defaults to 1.1; higher = more
	// concentrated).
	ZipfExponent float64
	// MeanRunsPerDay is the average usage rate (defaults to 10).
	MeanRunsPerDay int
}

// Population is a fleet of users.
type Population struct {
	cfg   Config
	users []*User
}

// New builds a deterministic population.
func New(cfg Config) (*Population, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("population: need at least 1 user, got %d", cfg.Users)
	}
	if cfg.Domain <= 0 {
		cfg.Domain = 256
	}
	if cfg.ZipfExponent <= 0 {
		cfg.ZipfExponent = 1.1
	}
	if cfg.MeanRunsPerDay <= 0 {
		cfg.MeanRunsPerDay = 10
	}
	rng := stats.NewRNG(cfg.Seed)
	p := &Population{cfg: cfg, users: make([]*User, cfg.Users)}
	for i := range p.users {
		urng := rng.Split()
		spread := int(cfg.Domain / 4)
		if spread < 2 {
			spread = 2
		}
		p.users[i] = &User{
			ID:         fmt.Sprintf("user-%d", i),
			EnvSeed:    urng.Uint64(),
			RegionBase: urng.Int63n(cfg.Domain),
			RunsPerDay: 1 + urng.Intn(2*cfg.MeanRunsPerDay-1),
			zipf:       stats.NewZipf(urng.Split(), spread, cfg.ZipfExponent),
			rng:        urng.Split(),
		}
	}
	return p, nil
}

// Users returns the fleet.
func (p *Population) Users() []*User { return p.users }

// Domain returns the input domain bound.
func (p *Population) Domain() int64 { return p.cfg.Domain }
