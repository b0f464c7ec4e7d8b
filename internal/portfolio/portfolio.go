// Package portfolio implements the paper's §4 portfolio-theory approach to
// cooperative analysis, in two forms:
//
//  1. A solver portfolio: run several complementary SAT solvers on the same
//     instance and take the first answer. The paper reports that replacing
//     one solver with a portfolio of three yielded a 10× speedup in
//     constraint-solving time for a 3× increase in resources; experiment E3
//     reproduces that shape.
//
//  2. A Markowitz-style allocator that treats execution-subtree roots as
//     "equities" with estimated mean/variance of discovery reward and
//     allocates hive nodes across them (diversification, speculation,
//     efficient frontier), used by internal/cluster.
package portfolio

import (
	"sync"

	"repro/internal/sat"
)

// SolverOutcome reports one solver's run inside a portfolio race.
type SolverOutcome struct {
	Name    string
	Verdict sat.Verdict
	Ticks   int64
}

// RaceResult is the outcome of racing a portfolio on one instance.
type RaceResult struct {
	// Winner is the first solver to reach a decisive verdict.
	Winner string
	// Verdict is the winning verdict (Unknown when no solver decided).
	Verdict sat.Verdict
	// Model is the winner's model for SAT instances.
	Model []bool
	// WinnerTicks is the winner's effort — the portfolio's "time" under the
	// parallel-execution model.
	WinnerTicks int64
	// TotalTicks sums all solvers' effort — the portfolio's "resources".
	TotalTicks int64
	// PerSolver lists each solver's individual run.
	PerSolver []SolverOutcome
}

// Race runs every solver concurrently on f and returns as soon as one
// decides, cancelling the rest. Each solver gets maxTicks budget. The
// per-solver tick counts in the result reflect effort actually spent
// (losers stop at cancellation).
func Race(f *sat.Formula, solvers []sat.Solver, maxTicks int64) RaceResult {
	type done struct {
		idx int
		res sat.Result
	}
	cancel := make(chan struct{})
	results := make(chan done, len(solvers))

	var wg sync.WaitGroup
	for i, s := range solvers {
		wg.Add(1)
		go func(idx int, s sat.Solver) {
			defer wg.Done()
			results <- done{idx: idx, res: s.Solve(f.Clone(), maxTicks, cancel)}
		}(i, s)
	}

	out := RaceResult{Verdict: sat.Unknown, PerSolver: make([]SolverOutcome, len(solvers))}
	canceled := false
	for range solvers {
		d := <-results
		out.PerSolver[d.idx] = SolverOutcome{
			Name:    solvers[d.idx].Name(),
			Verdict: d.res.Verdict,
			Ticks:   d.res.Ticks,
		}
		out.TotalTicks += d.res.Ticks
		if d.res.Verdict != sat.Unknown && out.Verdict == sat.Unknown {
			out.Verdict = d.res.Verdict
			out.Winner = solvers[d.idx].Name()
			out.WinnerTicks = d.res.Ticks
			out.Model = d.res.Model
			if !canceled {
				close(cancel)
				canceled = true
			}
		}
	}
	wg.Wait()
	if !canceled {
		close(cancel)
	}
	return out
}

// SequentialRun solves f with each solver to completion independently and
// reports per-solver ticks. It is the deterministic accounting mode used by
// experiment E3: the portfolio's parallel "time" on the instance is the
// minimum tick count, and its "resources" are k× that minimum (k solvers
// running until the winner finishes).
func SequentialRun(f *sat.Formula, solvers []sat.Solver, maxTicks int64) []SolverOutcome {
	out := make([]SolverOutcome, len(solvers))
	for i, s := range solvers {
		res := s.Solve(f.Clone(), maxTicks, nil)
		out[i] = SolverOutcome{Name: s.Name(), Verdict: res.Verdict, Ticks: res.Ticks}
	}
	return out
}

// BatchMetrics aggregates a batch of instances solved both ways: by each
// fixed single solver and by the portfolio-of-k model.
type BatchMetrics struct {
	// SingleTicks maps solver name to its total ticks over the batch
	// (Unknown runs count their full budget).
	SingleTicks map[string]int64
	// PortfolioTime is the sum over instances of min-ticks (parallel time).
	PortfolioTime int64
	// PortfolioResources is the sum over instances of k × min-ticks: k
	// processors all run until the winner finishes.
	PortfolioResources int64
	// BestSingle is the fixed solver with the lowest total.
	BestSingle string
	// Wins counts instances won per solver.
	Wins map[string]int
	// Instances is the batch size.
	Instances int
}

// Speedup returns best-single-total / portfolio-time: how much faster the
// portfolio answers than the best single solver chosen in hindsight.
func (m *BatchMetrics) Speedup() float64 {
	if m.PortfolioTime == 0 {
		return 0
	}
	return float64(m.SingleTicks[m.BestSingle]) / float64(m.PortfolioTime)
}

// EvaluateBatch computes BatchMetrics for instances under solvers using the
// deterministic accounting mode.
func EvaluateBatch(instances []sat.Instance, solvers []sat.Solver, maxTicks int64) BatchMetrics {
	m := BatchMetrics{
		SingleTicks: make(map[string]int64, len(solvers)),
		Wins:        make(map[string]int, len(solvers)),
		Instances:   len(instances),
	}
	k := int64(len(solvers))
	for _, inst := range instances {
		outcomes := SequentialRun(inst.Formula, solvers, maxTicks)
		var minTicks int64 = -1
		winner := ""
		for _, o := range outcomes {
			m.SingleTicks[o.Name] += o.Ticks
			if o.Verdict == sat.Unknown {
				continue
			}
			if minTicks < 0 || o.Ticks < minTicks {
				minTicks = o.Ticks
				winner = o.Name
			}
		}
		if minTicks < 0 {
			// Nobody decided: portfolio also burns the full budget on all k.
			minTicks = maxTicks
		} else {
			m.Wins[winner]++
		}
		m.PortfolioTime += minTicks
		m.PortfolioResources += k * minTicks
	}
	for name, total := range m.SingleTicks {
		if m.BestSingle == "" || total < m.SingleTicks[m.BestSingle] ||
			(total == m.SingleTicks[m.BestSingle] && name < m.BestSingle) {
			m.BestSingle = name
		}
	}
	return m
}
