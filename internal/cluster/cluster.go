// Package cluster implements cooperative symbolic execution (paper §4): the
// hive distributes exploration of a program's execution tree across worker
// nodes. Because "the contents and shape of the execution tree remain
// unknown until the tree is actually explored", a static partition is
// undecidable-to-balance; SoftBorg partitions dynamically as the tree
// unfolds. Experiment E8 contrasts the two policies, and the Markowitz
// allocator from internal/portfolio supplies a third, estimate-driven
// policy.
package cluster

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/exectree"
	"repro/internal/portfolio"
	"repro/internal/prog"
	"repro/internal/symbolic"
)

// Mode selects the partitioning policy.
type Mode uint8

// Partitioning policies.
const (
	// Static assigns each frontier to a fixed node determined by its
	// top-level subtree (hash of the first edge); no re-balancing.
	Static Mode = iota + 1
	// Dynamic assigns each frontier to the currently least-loaded node —
	// the work-stealing effect of a shared queue.
	Dynamic
	// Markowitz groups frontiers into subtree "equities" and allocates
	// nodes by mean/variance estimates of discharge cost.
	Markowitz
)

var modeNames = map[Mode]string{Static: "static", Dynamic: "dynamic", Markowitz: "markowitz"}

// String returns the mode label.
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Result summarizes one distributed exploration.
type Result struct {
	// Complete reports whether the tree was fully explored/certified.
	Complete bool
	// Discharged counts frontier discharges (runs + certificates).
	Discharged int
	// PerNode is each node's accumulated cost (solver ticks + run steps).
	PerNode []int64
	// Makespan is the max per-node cost: the parallel completion time.
	Makespan int64
	// TotalCost sums all nodes.
	TotalCost int64
	// Imbalance is Makespan / (TotalCost / nodes); 1.0 is perfect balance.
	Imbalance float64
	// Paths and Nodes are the final tree statistics.
	Paths int64
	Nodes int64
}

// maxRounds caps an exploration that has not emptied the frontier set.
const maxRounds = 1000

// Explore runs a distributed exploration of p's execution tree with the
// given number of worker nodes under the chosen partitioning mode. The
// model is deterministic: frontier discharge costs (solver ticks plus
// executed VM steps) accrue to the owning node, and assignment policy is
// the only variable — exactly what E8 isolates. It stops after maxRounds
// rounds if frontiers remain.
func Explore(p *prog.Program, nodes int, mode Mode) (*Result, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", nodes)
	}
	sym, err := symbolic.New(p, symbolic.Config{})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	tree := exectree.New(p.ID)
	// Seed the tree with the zero-input execution.
	seedPath, err := sym.Run(make([]int64, p.NumInputs))
	if err != nil {
		return nil, err
	}
	tree.Merge(seedPath.Events(), seedPath.Outcome)

	res := &Result{PerNode: make([]int64, nodes)}
	equities := make(map[string]*portfolio.Equity)

	for round := 0; round < maxRounds; round++ {
		if tree.FrontierCount() == 0 {
			res.Complete = true
			break
		}
		// Bounded pull: a round works the rarest roundBatch frontiers
		// instead of materializing the whole open set (which grows with the
		// tree); undischarged frontiers simply surface in a later round.
		frontiers := tree.Frontiers(roundBatch(nodes))
		progress := false
		assignment := assign(frontiers, nodes, mode, res.PerNode, equities)
		for i, f := range frontiers {
			node := assignment[i]
			cost, advanced := discharge(sym, tree, f)
			res.PerNode[node] += cost
			res.Discharged++
			if advanced {
				progress = true
			}
			if mode == Markowitz {
				eq := equityFor(equities, f)
				eq.Observe(float64(cost))
			}
		}
		if !progress {
			break
		}
	}

	for _, c := range res.PerNode {
		res.TotalCost += c
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	if res.TotalCost > 0 {
		mean := float64(res.TotalCost) / float64(nodes)
		res.Imbalance = float64(res.Makespan) / mean
	}
	st := tree.Stats()
	res.Paths, res.Nodes = st.Paths, st.Nodes
	return res, nil
}

// roundBatch bounds one exploration round's frontier pull: enough work to
// keep every node busy many times over, without ever materializing an
// open set that grows with the tree.
func roundBatch(nodes int) int {
	const minBatch = 256
	if b := nodes * 32; b > minBatch {
		return b
	}
	return minBatch
}

// assign maps each frontier to a node index per the policy.
func assign(frontiers []exectree.Frontier, nodes int, mode Mode, load []int64, equities map[string]*portfolio.Equity) []int {
	out := make([]int, len(frontiers))
	switch mode {
	case Static:
		for i, f := range frontiers {
			out[i] = int(subtreeHash(f)) % nodes
		}
	case Dynamic:
		// Least-loaded first: simulate a shared queue drained by idle
		// workers. Track tentative load locally so one round spreads work.
		tentative := append([]int64(nil), load...)
		for i := range frontiers {
			best := 0
			for n := 1; n < nodes; n++ {
				if tentative[n] < tentative[best] {
					best = n
				}
			}
			out[i] = best
			// Estimate: unit cost until measured.
			tentative[best]++
		}
	case Markowitz:
		// Allocate node shares to subtree equities, then deal frontiers of
		// each equity across its allocated nodes.
		eqs := make([]portfolio.Equity, 0, len(equities))
		byKey := make(map[string][]int)
		for i, f := range frontiers {
			key := equityKey(f)
			byKey[key] = append(byKey[key], i)
			if _, ok := equities[key]; !ok {
				equities[key] = &portfolio.Equity{ID: key}
			}
		}
		for _, eq := range equities {
			eqs = append(eqs, *eq)
		}
		alloc := portfolio.Allocate(eqs, nodes, portfolio.EfficientFrontier, 0.5)
		// Deal each equity's frontiers round-robin over a node window sized
		// by its allocation.
		next := 0
		windows := make(map[string][]int)
		for key, share := range alloc {
			for w := 0; w < share; w++ {
				windows[key] = append(windows[key], next%nodes)
				next++
			}
		}
		for key, idxs := range byKey {
			win := windows[key]
			if len(win) == 0 {
				win = []int{next % nodes}
				next++
			}
			for j, fi := range idxs {
				out[fi] = win[j%len(win)]
			}
		}
	}
	return out
}

// discharge resolves one frontier: run a synthesized input (growing the
// tree) or certify it infeasible. Cost is solver ticks plus VM steps.
func discharge(sym *symbolic.Engine, tree *exectree.Tree, f exectree.Frontier) (cost int64, progress bool) {
	input, verdict, err := sym.SolveFrontier(f)
	// SolveFrontier internally runs the program once (forced replay); count
	// a nominal replay cost plus solving.
	cost = 100
	if err != nil {
		return cost, false
	}
	switch verdict {
	case constraint.SAT:
		path, err := sym.Run(input)
		if err != nil {
			return cost, false
		}
		cost += path.Result.Steps
		mr := tree.Merge(path.Events(), path.Outcome)
		return cost, mr.NewNodes > 0 || mr.NewEdges > 0 || mr.NewPath
	case constraint.UNSAT:
		return cost, tree.CertifyInfeasible(f.Prefix, f.Missing)
	default:
		return cost, false
	}
}

// subtreeHash keys a frontier by its top-level subtree.
func subtreeHash(f exectree.Frontier) uint32 {
	var root exectree.Edge
	if len(f.Prefix) > 0 {
		root = f.Prefix[0]
	} else {
		root = f.Missing
	}
	h := uint32(2166136261)
	h = (h ^ uint32(root.ID)) * 16777619
	if root.Taken {
		h = (h ^ 1) * 16777619
	}
	return h
}

func equityKey(f exectree.Frontier) string {
	var root exectree.Edge
	if len(f.Prefix) > 0 {
		root = f.Prefix[0]
	} else {
		root = f.Missing
	}
	return root.String()
}

func equityFor(equities map[string]*portfolio.Equity, f exectree.Frontier) *portfolio.Equity {
	key := equityKey(f)
	eq, ok := equities[key]
	if !ok {
		eq = &portfolio.Equity{ID: key}
		equities[key] = eq
	}
	return eq
}
