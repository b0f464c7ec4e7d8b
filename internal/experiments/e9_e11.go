package experiments

import (
	"fmt"

	"repro/internal/exectree"
	"repro/internal/hive"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/internal/wire"
)

// E9CumulativeProofs reproduces §3.3's test/proof spectrum: accumulating
// natural evidence shrinks the symbolic work left to complete a proof, bugs
// surface as counter-examples, and infeasibility certificates discharge the
// never-executed directions.
func E9CumulativeProofs() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "cumulative proof attempts at growing evidence levels",
		Columns: []string{"program", "natural-runs", "verdict", "paths", "synthesized", "certificates"},
	}
	clean, _, err := proggen.Generate(proggen.Spec{Seed: 4001, Depth: 5, NumInputs: 1})
	if err != nil {
		return nil, err
	}
	buggy, _, err := proggen.Generate(proggen.Spec{
		Seed: 4002, Depth: 5, NumInputs: 1, Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		return nil, err
	}

	attempt := func(p *prog.Program, runs int, label string) error {
		sym, err := symbolic.New(p, symbolic.Config{})
		if err != nil {
			return err
		}
		tree := exectree.New(p.ID)
		rng := stats.NewRNG(42)
		for i := 0; i < runs; i++ {
			path, err := sym.Run([]int64{rng.Int63n(256)})
			if err != nil {
				return err
			}
			tree.Merge(path.Events(), path.Outcome)
		}
		engine := proof.NewEngine(p, sym)
		pr, err := engine.Attempt(tree, proof.PropNoCrash, 0)
		if err != nil {
			return err
		}
		verdict := "PARTIAL"
		switch {
		case pr.Complete && pr.Holds:
			verdict = "PROVEN"
		case !pr.Holds:
			verdict = fmt.Sprintf("REFUTED(%d ce)", len(pr.CounterExamples))
		}
		t.addRow(label, d(int64(runs)), verdict, d(pr.PathsCovered),
			d(int64(pr.NewEvidence)), d(int64(pr.Certificates)))
		t.metric(fmt.Sprintf("synth_%s_%d", label, runs), float64(pr.NewEvidence))
		return nil
	}

	for _, runs := range []int{1, 25, 200} {
		if err := attempt(clean, runs, "clean"); err != nil {
			return nil, err
		}
	}
	if err := attempt(buggy, 25, "buggy"); err != nil {
		return nil, err
	}
	t.Notes = "more natural evidence -> fewer prover-synthesized executions for the same PROVEN verdict (use recycles tests into the proof); the buggy program is refuted with concrete reproducing counter-examples"
	return t, nil
}

// E10Privacy reproduces §3.1's privacy/utility trade-off (after Castro et
// al.): each shipping level is scored by attacker ambiguity (how many
// candidate inputs are consistent with the trace) against diagnostic
// utility (can the hive still synthesize a validated fix, and can it
// correlate repeat inputs across pods?).
func E10Privacy() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "privacy level vs attacker ambiguity vs diagnostic utility",
		Columns: []string{"level", "attacker-candidates(/256)", "fix-synthesized", "cross-pod-correlation", "trace-bytes"},
	}
	p, bugs, err := proggen.Generate(proggen.Spec{
		Seed: 4010, Depth: 4, NumInputs: 1, Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		return nil, err
	}
	bug := bugs[0]

	for _, level := range []trace.PrivacyLevel{
		trace.PrivacyRaw, trace.PrivacyBucketed, trace.PrivacyHashed, trace.PrivacyOpaque,
	} {
		h := hive.New("fleet")
		if err := h.RegisterProgram(p); err != nil {
			return nil, err
		}
		salt := "fleet"
		if level == trace.PrivacyOpaque {
			salt = "pod-secret"
		}
		pd, err := pod.New(pod.Config{
			Program: p, ID: "pod-priv", Hive: h, Privacy: level, Salt: salt,
			BatchSize: 1, Capture: trace.CaptureFull,
		})
		if err != nil {
			return nil, err
		}
		// Benign background, then the crash.
		for v := int64(0); v < 30; v++ {
			if _, err := pd.RunOnce([]int64{v}); err != nil {
				return nil, err
			}
		}
		trigger := []int64{bug.TriggerLo}
		if _, err := pd.RunOnce(trigger); err != nil {
			return nil, err
		}
		st, err := h.ProgramStats(p.ID)
		if err != nil {
			return nil, err
		}

		// Attacker: reconstruct the user's input from a shipped trace.
		ship := func(seq uint64, input []int64) (*trace.Trace, error) {
			col := trace.NewCollector(p, trace.CaptureFull, 0, 1)
			m, err := prog.NewMachine(p, prog.Config{Input: input, Observer: col})
			if err != nil {
				return nil, err
			}
			return col.Finish("pod-priv", seq, m.Run(), input, level, salt), nil
		}
		shipped, err := ship(31, trigger)
		if err != nil {
			return nil, err
		}
		candidates := trace.GuessInput(shipped, 256, "fleet")
		// The crash's trace as it ships: last in a frame of shipFrame, after
		// the benign runs just before it.
		frame := make([]*trace.Trace, 0, shipFrame)
		for v := int64(30 - shipFrame + 1); v < 30; v++ {
			tr, err := ship(uint64(v+1), []int64{v})
			if err != nil {
				return nil, err
			}
			frame = append(frame, tr)
		}
		frame = append(frame, shipped)
		bytes, err := frameBytes(p.ID, frame)
		if err != nil {
			return nil, err
		}

		correl := "yes"
		if level == trace.PrivacyOpaque {
			correl = "no"
		}
		fixed := "no"
		if st.FixCount > 0 {
			fixed = "yes"
		}
		t.addRow(level.String(), d(candidates), fixed, correl, f2(float64(bytes)/shipFrame))
		t.metric("candidates_"+level.String(), float64(candidates))
	}
	t.Notes = "fix synthesis survives every level (the hive replays recorded branch directions, not inputs); what degrades is attacker ambiguity (up) and cross-pod input correlation (lost at opaque) — the trade-off the paper calls for quantifying; trace-bytes is the crash's columnar frame of 16 traces (the pod's default BatchSize) divided per trace"
	return t, nil
}

// E11WireThroughput exercises the whole Figure-1 loop over real TCP: a pod
// fleet streams binary traces to a hive server, fixes flow back.
func E11WireThroughput() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "pod->hive telemetry over TCP (localhost)",
		Columns: []string{"pods", "traces-ingested", "reconstructed", "fixes-propagated"},
	}
	p, _, err := proggen.Generate(proggen.Spec{
		Seed: 4011, Depth: 4, NumInputs: 1, TriggerWidth: 20,
		Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		return nil, err
	}
	h := hive.New("fleet")
	if err := h.RegisterProgram(p); err != nil {
		return nil, err
	}
	srv := wire.NewServer(h)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	const fleet = 8
	const runs = 100
	rng := stats.NewRNG(4)
	for i := 0; i < fleet; i++ {
		client := wire.Dial(addr)
		// Each pod buffers its day and drains through the pipelined
		// per-program streaming path — batches in flight back-to-back
		// instead of one round trip per upload.
		buf := pod.NewBufferedFor(client, p.ID)
		pd, err := pod.New(pod.Config{
			Program: p, ID: fmt.Sprintf("tcp-pod-%d", i), Hive: buf,
			Salt: "fleet", Seed: uint64(i), BatchSize: 16,
		})
		if err != nil {
			return nil, err
		}
		for r := 0; r < runs; r++ {
			input := []int64{rng.Int63n(256)}
			if _, err := pd.RunOnce(input); err != nil {
				return nil, err
			}
		}
		if err := pd.Flush(); err != nil {
			return nil, err
		}
		if err := buf.Drain(); err != nil {
			return nil, err
		}
		if err := pd.SyncFixes(); err != nil {
			return nil, err
		}
		_ = client.Close()
	}
	hs, err := h.ProgramStats(p.ID)
	if err != nil {
		return nil, err
	}
	t.addRow(d(fleet), d(hs.Ingested), d(hs.Reconstructed), d(int64(hs.FixCount)))
	t.metric("ingested", float64(hs.Ingested))
	t.metric("fixes", float64(hs.FixCount))
	t.Notes = fmt.Sprintf("%d traces ingested over real sockets via pipelined per-program streaming; %d failure signature(s) turned into distributed fixes; reconstruction expanded %d external-only traces (see BenchmarkWireSubmit for the pipelined-vs-serial throughput comparison)",
		hs.Ingested, hs.FixCount, hs.Reconstructed)
	return t, nil
}
