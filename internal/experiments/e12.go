package experiments

import (
	"fmt"
	"os"

	"repro/internal/hive"
	"repro/internal/journal"
	"repro/internal/pod"
	"repro/internal/prog"
	"repro/internal/proggen"
	"repro/internal/proof"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// E12CrashRecovery kills the hive mid-simulation and proves that the
// collective knowledge the paper's premise depends on — execution trees,
// failure signatures, fixes, standing proofs, and steering quality —
// survives the crash: the journaled hive recovers snapshot + journal
// suffix bit-for-bit, loses no acknowledged trace, deduplicates a
// resubmitted partially-acknowledged stream exactly-once, and keeps
// serving the same guidance it would have before dying.
func E12CrashRecovery() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "kill-and-restart: durable hive recovery mid-simulation",
		Columns: []string{"phase", "ingested", "fixes", "standing-proofs", "open-frontiers", "guidance-cases"},
	}
	// Deep enough that natural usage leaves open frontiers at crash time —
	// the recovered hive must keep steering toward the same gaps.
	buggy, _, err := proggen.Generate(proggen.Spec{
		Seed: 4012, Depth: 7, NumInputs: 2, DetBranches: 6, TriggerWidth: 64,
		Bugs: []proggen.BugKind{proggen.BugCrash},
	})
	if err != nil {
		return nil, err
	}
	clean, _, err := proggen.Generate(proggen.Spec{Seed: 4013, Depth: 5, NumInputs: 1})
	if err != nil {
		return nil, err
	}
	corpus := []*prog.Program{buggy, clean}

	dataDir, err := os.MkdirTemp("", "softborg-e12-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	boot := func() (*hive.Hive, *journal.Store, error) {
		h := hive.New("fleet")
		for _, p := range corpus {
			if err := h.RegisterProgram(p); err != nil {
				return nil, nil, err
			}
		}
		store, err := journal.Open(dataDir, journal.Options{})
		if err != nil {
			return nil, nil, err
		}
		if err := h.Recover(store); err != nil {
			return nil, nil, err
		}
		return h, store, nil
	}

	row := func(h *hive.Hive, phase string) (ingested, fixes, proofs, frontiers, cases int64, err error) {
		for _, p := range corpus {
			st, err := h.ProgramStats(p.ID)
			if err != nil {
				return 0, 0, 0, 0, 0, err
			}
			ingested += st.Ingested
			fixes += int64(st.FixCount)
			pub, err := h.PublishedProofs(p.ID)
			if err != nil {
				return 0, 0, 0, 0, 0, err
			}
			proofs += int64(len(pub))
			// Guidance first: it certifies refuted frontiers as a side
			// effect, so the frontier count read after it is the steady
			// state the next phase inherits.
			tc, err := h.Guidance(p.ID, 4)
			if err != nil {
				return 0, 0, 0, 0, 0, err
			}
			cases += int64(len(tc))
			tree, err := h.Tree(p.ID)
			if err != nil {
				return 0, 0, 0, 0, 0, err
			}
			frontiers += int64(tree.FrontierCount())
		}
		t.addRow(phase, d(ingested), d(fixes), d(proofs), d(frontiers), d(cases))
		return ingested, fixes, proofs, frontiers, cases, nil
	}

	runFleet := func(h *hive.Hive, pods, runs int, seed uint64) error {
		srv := wire.NewServer(h)
		srv.Logf = func(string, ...any) {}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		rng := stats.NewRNG(seed)
		for i := 0; i < pods; i++ {
			p := corpus[i%len(corpus)]
			client := wire.Dial(addr)
			buf := pod.NewBufferedFor(client, p.ID)
			pd, err := pod.New(pod.Config{
				Program: p, ID: fmt.Sprintf("e12-pod-%d", i), Hive: buf,
				Salt: "fleet", Seed: seed ^ uint64(i+1), BatchSize: 16,
			})
			if err != nil {
				return err
			}
			for r := 0; r < runs; r++ {
				input := make([]int64, p.NumInputs)
				for k := range input {
					input[k] = rng.Int63n(256)
				}
				if _, err := pd.RunOnce(input); err != nil {
					return err
				}
			}
			if err := pd.Flush(); err != nil {
				return err
			}
			if err := buf.Drain(); err != nil {
				return err
			}
			if err := pd.SyncFixes(); err != nil {
				return err
			}
			_ = client.Close()
		}
		return nil
	}

	// Phase 1: the fleet runs over TCP; a checkpoint lands mid-way so the
	// crash exercises snapshot-plus-journal-suffix recovery; the hive
	// proves the clean program crash-free.
	h1, store1, err := boot()
	if err != nil {
		return nil, err
	}
	if err := runFleet(h1, 4, 40, 1); err != nil {
		return nil, err
	}
	if err := h1.Checkpoint(); err != nil {
		return nil, err
	}
	if err := runFleet(h1, 4, 40, 2); err != nil {
		return nil, err
	}
	if _, err := h1.Prove(clean.ID, proof.PropNoCrash); err != nil {
		return nil, err
	}
	// A partially-acknowledged sequenced stream: frames 1..6 applied, the
	// client heard acks for only the first 3 before the crash. Each frame is
	// sealed once; the same bytes are what the client resubmits.
	var stream [][]byte
	rng := stats.NewRNG(99)
	for i := 0; i < 6; i++ {
		var batch []*trace.Trace
		for j := 0; j < 4; j++ {
			input := []int64{rng.Int63n(256), rng.Int63n(256)}
			col := trace.NewCollector(buggy, trace.CaptureFull, 0, 1)
			m, err := prog.NewMachine(buggy, prog.Config{Input: input, Observer: col})
			if err != nil {
				return nil, err
			}
			res := m.Run()
			batch = append(batch, col.Finish("e12-stream-pod", uint64(i*4+j), res, input, trace.PrivacyHashed, "fleet"))
		}
		frame, err := trace.EncodeBatch(buggy.ID, batch)
		if err != nil {
			return nil, err
		}
		stream = append(stream, frame)
	}
	submit := func(h *hive.Hive, i int) (dup bool, err error) {
		view, err := trace.DecodeBatch(stream[i])
		if err != nil {
			return false, err
		}
		defer view.Release()
		return h.SubmitColumnarSession("e12-stream-session", uint64(i+1), view)
	}
	for i := range stream {
		if _, err := submit(h1, i); err != nil {
			return nil, err
		}
	}
	preIngested, preFixes, preProofs, preFrontiers, preCases, err := row(h1, "pre-crash")
	if err != nil {
		return nil, err
	}

	// Crash: no checkpoint, no shutdown. The in-memory hive is gone.
	if err := store1.Close(); err != nil {
		return nil, err
	}

	// Phase 2: recover and verify nothing acknowledged was lost.
	h2, store2, err := boot()
	if err != nil {
		return nil, err
	}
	defer store2.Close()
	postIngested, postFixes, postProofs, postFrontiers, postCases, err := row(h2, "recovered")
	if err != nil {
		return nil, err
	}
	if postIngested != preIngested || postFixes != preFixes || postProofs != preProofs ||
		postFrontiers != preFrontiers || postCases != preCases {
		return nil, fmt.Errorf("E12: recovery lost state: ingested %d->%d fixes %d->%d proofs %d->%d frontiers %d->%d guidance %d->%d",
			preIngested, postIngested, preFixes, postFixes, preProofs, postProofs,
			preFrontiers, postFrontiers, preCases, postCases)
	}

	// Phase 3: the client reconnects and resubmits its whole stream with
	// the original sequence numbers; the recovered dedup table suppresses
	// every already-applied frame.
	dups := 0
	for i := range stream {
		dup, err := submit(h2, i)
		if err != nil {
			return nil, err
		}
		if dup {
			dups++
		}
	}
	resubIngested, _, _, _, _, err := row(h2, fmt.Sprintf("resubmit(%d dup)", dups))
	if err != nil {
		return nil, err
	}
	if resubIngested != postIngested || dups != len(stream) {
		return nil, fmt.Errorf("E12: resubmission not exactly-once: ingested %d->%d, %d/%d dups",
			postIngested, resubIngested, dups, len(stream))
	}

	// Phase 4: the simulation continues on the recovered hive.
	if err := runFleet(h2, 4, 20, 3); err != nil {
		return nil, err
	}
	if _, _, _, _, _, err := row(h2, "continued"); err != nil {
		return nil, err
	}

	t.metric("lost_traces", float64(preIngested-postIngested))
	t.metric("dup_suppressed", float64(dups))
	t.metric("proofs_survived", float64(postProofs))
	t.metric("frontiers_survived", float64(postFrontiers-preFrontiers))
	t.Notes = fmt.Sprintf(
		"killing the hive after %d ingested traces lost none of them; %d fix(es), %d standing proof(s), and the guidance read path (%d->%d test cases at identical frontier sets) survived recovery; a 6-frame stream resubmitted with original sequence numbers was %d/6 deduplicated (exactly-once)",
		preIngested, postFixes, postProofs, preCases, postCases, dups)
	return t, nil
}
