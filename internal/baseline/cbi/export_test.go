package cbi

import (
	"math"
	"sort"
)

// RankOf returns the 1-based rank of the given predicate in the current
// ranking, or 0 when absent — the localization-quality metric.
func (a *Aggregator) RankOf(p Predicate) int {
	for i, s := range a.Rank() {
		if s.Pred == p {
			return i + 1
		}
	}
	return 0
}

// Score is the Liblit-style ranking for one predicate.
type Score struct {
	Pred Predicate
	// Failure is F(P)/(F(P)+S(P)): how predictive observing P true is of
	// failure.
	Failure float64
	// Context is F(P obs)/(F(P obs)+S(P obs)): the baseline failure rate of
	// runs that merely reach P's site.
	Context float64
	// Increase = Failure − Context: the predicate's excess failure
	// correlation, the primary ranking key.
	Increase float64
	// Importance is the harmonic mean of Increase and a normalized support
	// term, penalizing rarely observed predicates.
	Importance float64
	// TrueInFailing counts failing runs where P was observed true.
	TrueInFailing int64
}

// Rank returns predicates ordered by Importance (desc): the bug report a
// CBI deployment would hand a developer.
func (a *Aggregator) Rank() []Score {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Score, 0, len(a.preds))
	for p, c := range a.preds {
		trueObs := c.trueFail + c.trueSucc
		obs := c.obsFail + c.obsSucc
		if trueObs == 0 || obs == 0 {
			continue
		}
		failure := float64(c.trueFail) / float64(trueObs)
		context := float64(c.obsFail) / float64(obs)
		increase := failure - context
		importance := 0.0
		if increase > 0 && c.trueFail > 0 && a.failures > 0 {
			support := math.Log(float64(c.trueFail)+1) / math.Log(float64(a.failures)+1)
			importance = 2 / (1/increase + 1/support)
		}
		out = append(out, Score{
			Pred:          p,
			Failure:       failure,
			Context:       context,
			Increase:      increase,
			Importance:    importance,
			TrueInFailing: c.trueFail,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Importance != out[j].Importance {
			return out[i].Importance > out[j].Importance
		}
		if out[i].Increase != out[j].Increase {
			return out[i].Increase > out[j].Increase
		}
		if out[i].Pred.BranchID != out[j].Pred.BranchID {
			return out[i].Pred.BranchID < out[j].Pred.BranchID
		}
		return !out[i].Pred.Taken && out[j].Pred.Taken
	})
	return out
}
