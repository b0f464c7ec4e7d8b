package hive

import (
	"fmt"
	"io"

	"repro/internal/archive"
	"repro/internal/journal"
	"repro/internal/prog"
)

// This file is the program re-homing surface for multi-hive sharding. A
// program's state changes hands as a journal.ChainExport — the journal's own
// chain, with the generations it was cut at — whether it comes from a live
// hive (ExportProgram), a dead hive's data directory (Store.ExportChain) or
// the object store (archive.Load). ImportProgram restores any of them through
// recoverProgram, as a reboot does. The chain carries the session dedup
// table, so a sealed frame acknowledged by the old owner is dup-acknowledged
// by the new one — re-homing preserves exactly-once end to end.

// ExportProgram captures one program's full state as a one-segment chain,
// taken under the program's checkpoint gate so no journaled mutation is in
// flight: the base a full checkpoint would write now, at the generation of
// the hive's own store (0 for an in-memory hive).
func (h *Hive) ExportProgram(programID string) (*journal.ChainExport, error) {
	st, err := h.state(programID)
	if err != nil {
		return nil, err
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	snap, err := h.snapshotProgramMeta(st)
	if err != nil {
		return nil, err
	}
	snap.Tree = st.tree.Encode()
	var gen uint64
	if h.journal != nil {
		gen = h.journal.Generation(programID)
	}
	return journal.CutChain(snap, gen), nil
}

// ImportProgram installs a chain into this hive, re-homing the program
// here. The program must already be registered (the corpus is fleet-wide)
// and must not have ingested anything yet: an import replaces state
// wholesale, and silently merging two divergent histories is exactly the
// kind of loss the journal exists to prevent. On a durable hive the restored
// state is checkpointed in full, at a generation above the one the chain was
// cut at: the new owner's next boot recovers it without the old owner's data
// directory, and its archived chain outranks the old owner's.
//
// The import is all-or-nothing: on a corrupt chain or a failed checkpoint the
// program is back as registration left it and the import can be retried.
// Session marks merged by then stay; they name frames the fleet has
// acknowledged, whoever ends up holding the program.
func (h *Hive) ImportProgram(chain *journal.ChainExport) error {
	if chain == nil || chain.ProgramID == "" {
		return fmt.Errorf("hive: import: empty chain")
	}
	st, err := h.state(chain.ProgramID)
	if err != nil {
		return fmt.Errorf("hive: import %s: program not registered: %w", chain.ProgramID, err)
	}
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	if n := st.ingested.Load(); n > 0 {
		return fmt.Errorf("hive: import %s: program already holds %d ingested traces here", chain.ProgramID, n)
	}
	st.reset() // the replay runs over nothing
	err = h.recoverProgram(chain, chain.ProgramID)
	// The chain restored lies in another directory; this one starts its own.
	st.hasBase, st.deltasSince = false, 0
	if err == nil && h.journal != nil {
		err = h.checkpointLocked(st, chain.WALGen)
	}
	if err != nil {
		st.reset()
		err = fmt.Errorf("hive: import %s: %w", chain.ProgramID, err)
	}
	return err
}

// DropProgram forgets a program this hive no longer owns: its state in
// memory and, on a durable hive, its chain, tether marker and journal on
// disk, so a reboot does not bring it back and it can be imported here again.
// Subsequent frames for it fail with ErrUnknownProgram — the routing tier
// answers them with a redirect before they reach the hive, so the error only
// surfaces to peers with a placement older than the move. Dropping an
// unknown program is a no-op.
func (h *Hive) DropProgram(programID string) error {
	st, err := h.state(programID)
	if err != nil {
		return nil
	}
	// The gate waits out whatever is journaling for the program now; gone
	// turns away what resolved the shard before it left the registry.
	st.ckpt.Lock()
	defer st.ckpt.Unlock()
	st.gone = true
	h.mu.Lock()
	delete(h.programs, programID)
	h.mu.Unlock()
	if h.journal == nil {
		return nil
	}
	return h.journal.Remove(programID)
}

// ExportFromArchive is cold-standby recovery (PR 10): the chains of a dead
// hive's programs from nothing but the archive store — its process gone, its
// data directory deleted — each the winning manifest's (archive.Load), for
// ImportProgram on the surviving hives. A program in the store that corpus
// does not hold is an error, as it is for Recover. The directory, the salt
// and the Closer are left from the scratch hive this used to recover into;
// nothing reads them.
func ExportFromArchive(obj archive.ObjectStore, _ string, corpus []*prog.Program, _ string) (map[string]*journal.ChainExport, io.Closer, error) {
	ids, err := archive.Programs(obj)
	if err != nil {
		return nil, nil, fmt.Errorf("hive: cold standby: %w", err)
	}
	registered := make(map[string]bool, len(corpus))
	for _, p := range corpus {
		registered[p.ID] = true
	}
	out := make(map[string]*journal.ChainExport, len(ids))
	for _, id := range ids {
		if !registered[id] {
			return nil, nil, fmt.Errorf("hive: cold standby: archive holds state for unregistered program %s", id)
		}
		if out[id], err = archive.Load(obj, id); err != nil {
			return nil, nil, fmt.Errorf("hive: cold standby: %w", err)
		}
	}
	return out, io.NopCloser(nil), nil
}
