// Package undo implements the undo-logging baseline: the atomicity
// mechanism of Intel's NVML/libpmemobj that the paper measures Kamino-Tx
// against. Before an object may be modified, its entire old contents are
// copied into the persistent undo log *in the critical path* (TX_ADD); the
// transaction then edits the original in place. Aborts and crash recovery
// restore objects from the logged copies; commit discards them.
package undo

import (
	"time"

	"kaminotx/internal/engine/txcore"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// Config tunes the engine: the intent-log geometry and the concurrency
// shard count.
type Config = txcore.Config

// New formats a fresh heap and log and returns an engine over them.
func New(heapReg, logReg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.New("undo", heapReg, logReg, cfg, build)
}

// Open attaches to existing regions, runs crash recovery, and rebuilds the
// heap free lists.
func Open(heapReg, logReg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.Open("undo", heapReg, logReg, cfg, build)
}

func build(e *txcore.Engine) (txcore.Policy, txcore.Meters) {
	o := e.Obs()
	return policy{e}, txcore.Meters{
		Aborts: o.Counter("aborts"),
		Copied: o.Counter("bytes_copied_critical"),
		Copy:   o.Phase(obs.PhaseCriticalCopy),
		Heap:   o.Phase(obs.PhaseHeapPersist),
		Marker: o.Phase(obs.PhaseCommitPersist),
	}
}

// policy is undo logging: the old block goes into the log on Add, and
// rollback copies it back.
type policy struct{ e *txcore.Engine }

// Add copies obj's old contents into the undo log before admitting writes.
// This copy is the critical-path cost Kamino-Tx eliminates.
func (p policy) Add(t *txcore.Tx, obj heap.ObjID, ws txcore.WSEntry) (txcore.WSEntry, error) {
	start := time.Now()
	n := heap.BlockHeaderSize + ws.Class
	old, err := p.e.Heap().Region().ReadSlice(int(obj)-heap.BlockHeaderSize, n)
	if err != nil {
		return ws, err
	}
	if err := t.Append(intentlog.Entry{Op: intentlog.OpWrite, Class: uint32(ws.Class), Obj: uint64(obj)}, old); err != nil {
		return ws, err
	}
	t.ChargeCopy(start, n)
	return ws, nil
}

// Commit persists the in-place edits and the commit marker; the undo
// copies are discarded with the slot.
func (p policy) Commit(t *txcore.Tx) error { return t.CommitInPlace() }

// Abort restores every modified object from its undo copy.
func (p policy) Abort(t *txcore.Tx) error {
	return t.Rollback(func(ent intentlog.Entry) error { return p.restore(ent, t.Log().Data) })
}

// Recover rolls incomplete and aborted transactions back from their undo
// copies and completes the deferred frees of committed transactions.
func (p policy) Recover(v intentlog.SlotView) error {
	var err error
	if v.State == intentlog.StateCommitted {
		err = p.e.ApplyLoggedFrees(v.Entries)
	} else {
		err = p.e.Rollback(nil, 0, v.Entries, func(ent intentlog.Entry) error { return p.restore(ent, v.Data) })
	}
	if err != nil {
		return err
	}
	return v.Free()
}

// restore writes one undo copy back over its block and persists it.
// Whole-block copies make this idempotent.
func (p policy) restore(ent intentlog.Entry, data func(uint32, int) ([]byte, error)) error {
	old, err := data(ent.DataOff, int(ent.DataLen))
	if err != nil {
		return err
	}
	reg := p.e.Heap().Region()
	blockOff := int(ent.Obj) - heap.BlockHeaderSize
	if err := reg.Write(blockOff, old); err != nil {
		return err
	}
	return reg.Persist(blockOff, len(old))
}
