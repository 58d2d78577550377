// Package cow implements the copy-on-write baseline (paper Figure 2,
// middle): TX_ADD copies the object into a persistent shadow area and the
// transaction edits the shadow; at commit the shadow is applied back to the
// original. Both the initial copy and the copy-back happen around the
// critical path, which is the overhead profile of NVM-CoW-style systems
// (Mnemosyne, CDDS).
package cow

import (
	"time"

	"kaminotx/internal/engine/txcore"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// Config tunes the engine: the intent-log geometry (its per-slot data
// area holds the shadows) and the concurrency shard count.
type Config = txcore.Config

// New formats a fresh heap and log and returns an engine over them.
func New(heapReg, logReg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.New("cow", heapReg, logReg, cfg, build)
}

// Open attaches to existing regions, runs crash recovery, and rebuilds the
// heap free lists.
func Open(heapReg, logReg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.Open("cow", heapReg, logReg, cfg, build)
}

func build(e *txcore.Engine) (txcore.Policy, txcore.Meters) {
	o := e.Obs()
	m := txcore.Meters{
		Aborts: o.Counter("aborts"),
		Copied: o.Counter("bytes_copied_critical"),
		Copy:   o.Phase(obs.PhaseCriticalCopy),
		Marker: o.Phase(obs.PhaseCommitPersist),
	}
	return &policy{
		e:          e,
		copied:     m.Copied,
		phPersist:  o.Phase(obs.PhaseIntentPersist),
		phCopyBack: o.Phase(obs.PhaseCopyBack),
	}, m
}

// policy is copy-on-write: Add makes a shadow in the log's data area, the
// transaction edits it (WSEntry.Shadow routes Read and Write there), and
// commit copies it back.
type policy struct {
	e          *txcore.Engine
	copied     *obs.Counter   // bytes_copied_critical, also charged by copy-back
	phPersist  *obs.PhaseStat // pre-marker shadow/alloc persist
	phCopyBack *obs.PhaseStat // post-commit shadow-to-original apply
}

// Add creates the object's persistent shadow copy in the critical path.
func (p *policy) Add(t *txcore.Tx, obj heap.ObjID, ws txcore.WSEntry) (txcore.WSEntry, error) {
	n := heap.BlockHeaderSize + ws.Class
	start := time.Now()
	regionOff, dataOff, err := t.Log().ReserveData(n)
	if err != nil {
		return ws, err
	}
	logReg := p.e.Log().Region()
	if err := nvm.Copy(logReg, regionOff, p.e.Heap().Region(), int(obj)-heap.BlockHeaderSize, n); err != nil {
		return ws, err
	}
	if err := logReg.Persist(regionOff, n); err != nil {
		return ws, err
	}
	if err := t.Append(intentlog.Entry{
		Op:      intentlog.OpWrite,
		Class:   uint32(ws.Class),
		Obj:     uint64(obj),
		DataOff: dataOff,
		DataLen: uint32(n),
	}, nil); err != nil {
		return ws, err
	}
	t.ChargeCopy(start, n)
	ws.Shadow = regionOff
	return ws, nil
}

// Commit makes the shadows and fresh allocations durable before the commit
// record (recovery replays the copy-back from them), then applies the
// shadows to the originals — the paper's "copy to original" — and the
// deferred frees.
func (p *policy) Commit(t *txcore.Tx) error {
	logReg := p.e.Log().Region()
	heapReg := p.e.Heap().Region()
	start := time.Now()
	for _, ws := range t.WriteSet() {
		if ws.Shadow != 0 {
			if err := logReg.Flush(ws.Shadow, heap.BlockHeaderSize+ws.Class); err != nil {
				return err
			}
		}
	}
	logReg.Fence()
	for obj, ws := range t.WriteSet() {
		if ws.Writable && ws.Shadow == 0 { // allocated by t: edited in place
			if err := heapReg.Flush(int(obj)-heap.BlockHeaderSize, heap.BlockHeaderSize+ws.Class); err != nil {
				return err
			}
		}
	}
	heapReg.Fence()
	d := time.Since(start)
	p.phPersist.Observe(d)
	tr := p.e.Tracer()
	tr.Span(string(obs.PhaseIntentPersist), t.ID(), d)
	if err := t.MarkCommitted(); err != nil {
		return err
	}
	entries, err := t.Log().Entries()
	if err != nil {
		return err
	}
	start = time.Now()
	if err := p.applyShadows(entries, t.Log().Data); err != nil {
		return err
	}
	d = time.Since(start)
	p.phCopyBack.Observe(d)
	tr.Span(string(obs.PhaseCopyBack), t.ID(), d)
	for _, ws := range t.WriteSet() {
		if ws.Shadow != 0 {
			p.copied.Add(uint64(heap.BlockHeaderSize + ws.Class))
		}
	}
	if err := t.ApplyFrees(); err != nil {
		return err
	}
	return t.Finish()
}

// Abort unwinds allocations only: originals are untouched until commit.
func (p *policy) Abort(t *txcore.Tx) error { return t.Rollback(nil) }

// Recover finishes committed transactions (shadow copy-back, then deferred
// frees — both idempotent) and unwinds the allocations of incomplete ones,
// which need no data restoration.
func (p *policy) Recover(v intentlog.SlotView) error {
	var err error
	if v.State == intentlog.StateCommitted {
		if err = p.applyShadows(v.Entries, v.Data); err == nil {
			err = p.e.ApplyLoggedFrees(v.Entries)
		}
	} else {
		err = p.e.Rollback(nil, 0, v.Entries, nil)
	}
	if err != nil {
		return err
	}
	return v.Free()
}

// applyShadows copies every shadow back onto its original and persists it.
func (p *policy) applyShadows(entries []intentlog.Entry, data func(uint32, int) ([]byte, error)) error {
	reg := p.e.Heap().Region()
	for _, ent := range entries {
		if ent.Op != intentlog.OpWrite {
			continue
		}
		shadow, err := data(ent.DataOff, int(ent.DataLen))
		if err != nil {
			return err
		}
		blockOff := int(ent.Obj) - heap.BlockHeaderSize
		if err := reg.Write(blockOff, shadow); err != nil {
			return err
		}
		if err := reg.Flush(blockOff, len(shadow)); err != nil {
			return err
		}
	}
	reg.Fence()
	return nil
}
