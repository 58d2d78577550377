// Package inplace implements the engine used by non-head replicas of
// Kamino-Tx-Chain (paper §5): objects are modified in place with a durable
// intent log but no local copies of any kind — no undo data, no backup
// heap. The per-replica storage saving is the point of the f+2 chain
// design: the chain's neighbours are the copies.
//
// Consequences:
//
//   - A transaction that modified objects cannot abort: only transactions
//     already committed by the head are admitted to a replica, so the
//     abort path cannot be reached in correct operation.
//   - Crash recovery cannot complete locally. Recover finishes committed
//     transactions (re-applying their deferred frees), but incomplete
//     transactions are surfaced via PendingRecovery so the chain layer can
//     roll them forward from the predecessor or back from the successor
//     (paper §5.3), installing fetched object images via ResolvePending.
package inplace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/txcore"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// ErrAbortUnsupported reports an Abort on an in-place replica engine.
var ErrAbortUnsupported = errors.New("inplace: abort requires a copy; only the chain head may abort")

// Config tunes the engine: the intent-log geometry (its data area is
// forced to zero — nothing is copied) and the concurrency shard count.
type Config = txcore.Config

// Engine is the in-place chain-replica engine.
type Engine struct {
	*txcore.Engine

	mu      sync.Mutex  // guards pending during parallel log replay
	pending []PendingTx // incomplete transactions found at Open
}

// PendingTx is one incomplete transaction surfaced for chain-level
// recovery.
type PendingTx struct {
	TxID uint64
	Objs []PendingObj

	slot intentlog.SlotView
}

// PendingObj identifies one object whose contents must be fetched from a
// chain neighbour.
type PendingObj struct {
	Obj   heap.ObjID
	Class int
	Op    intentlog.Op
}

// New formats fresh regions and returns an engine.
func New(heapReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg.Log.DataBytesPerSlot = 0
	e := &Engine{}
	if _, err := txcore.New("inplace", heapReg, logReg, cfg, e.build); err != nil {
		return nil, err
	}
	return e, nil
}

// Open attaches to existing regions and runs local recovery. If the result
// has pending transactions (PendingRecovery non-empty), the caller MUST
// resolve them via ResolvePending before Begin.
func Open(heapReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	e := &Engine{}
	if _, err := txcore.Open("inplace", heapReg, logReg, cfg, e.build); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) build(c *txcore.Engine) (txcore.Policy, txcore.Meters) {
	e.Engine = c
	o := c.Obs()
	return policy{e}, txcore.Meters{
		Intent: o.Phase(obs.PhaseIntentPersist),
		Heap:   o.Phase(obs.PhaseHeapPersist),
		Marker: o.Phase(obs.PhaseCommitPersist),
	}
}

// policy is in-place update with an intent log and no copy: writes are
// logged by address, and rollback is left to the chain neighbours.
type policy struct{ e *Engine }

// Add durably logs the write intent.
func (p policy) Add(t *txcore.Tx, obj heap.ObjID, ws txcore.WSEntry) (txcore.WSEntry, error) {
	return ws, t.Append(intentlog.Entry{Op: intentlog.OpWrite, Class: uint32(ws.Class), Obj: uint64(obj)}, nil)
}

// Commit persists the in-place edits and the commit marker.
func (p policy) Commit(t *txcore.Tx) error { return t.CommitInPlace() }

// Abort refuses: a transaction that modified objects cannot abort without
// a copy. (Read-only transactions end in the core and always succeed.)
func (p policy) Abort(*txcore.Tx) error { return ErrAbortUnsupported }

// Recover completes committed transactions and collects incomplete ones
// for chain-level resolution.
func (p policy) Recover(v intentlog.SlotView) error {
	if v.State == intentlog.StateCommitted {
		if err := p.e.ApplyLoggedFrees(v.Entries); err != nil {
			return err
		}
		return v.Free()
	}
	if len(v.Entries) == 0 {
		return v.Free()
	}
	pt := PendingTx{TxID: v.TxID, slot: v}
	for _, ent := range v.Entries {
		pt.Objs = append(pt.Objs, PendingObj{Obj: heap.ObjID(ent.Obj), Class: int(ent.Class), Op: ent.Op})
	}
	p.e.mu.Lock()
	p.e.pending = append(p.e.pending, pt)
	p.e.mu.Unlock()
	return nil
}

// PendingRecovery returns the incomplete transactions left by the last
// Open/Recover.
func (e *Engine) PendingRecovery() []PendingTx { return e.pending }

// ResolvePending completes recovery by installing object images obtained
// from a chain neighbour. fetch must return the full block contents
// (header + payload, heap.BlockHeaderSize+class bytes) of the object as
// stored at the neighbour; rolling forward uses the predecessor, rolling
// back the successor — the engine does not care which.
func (e *Engine) ResolvePending(fetch func(obj heap.ObjID, class int) ([]byte, error)) error {
	reg := e.Heap().Region()
	for _, p := range e.pending {
		for _, po := range p.Objs {
			img, err := fetch(po.Obj, po.Class)
			if err != nil {
				return fmt.Errorf("inplace: resolving tx %d obj %d: %w", p.TxID, po.Obj, err)
			}
			want := heap.BlockHeaderSize + po.Class
			if len(img) != want {
				return fmt.Errorf("inplace: fetched %d bytes for obj %d, want %d", len(img), po.Obj, want)
			}
			// A zero class in the fetched header means the neighbour
			// never allocated this block — we are rolling an
			// allocation back (successor case). Synthesize a free
			// header of the logged class so the heap stays parseable.
			if binary.LittleEndian.Uint32(img) == 0 {
				clear(img)
				binary.LittleEndian.PutUint32(img, uint32(po.Class))
			}
			blockOff := int(po.Obj) - heap.BlockHeaderSize
			if err := reg.Write(blockOff, img); err != nil {
				return err
			}
			if err := reg.Persist(blockOff, want); err != nil {
				return err
			}
		}
		if err := p.slot.Free(); err != nil {
			return err
		}
	}
	e.pending = nil
	// Block headers may have changed (alloc rolled back/forward).
	return e.Heap().Rescan()
}

// ReadBlock returns the full block image of obj; chain neighbours serve
// fetches with it.
func (e *Engine) ReadBlock(obj heap.ObjID, class int) ([]byte, error) {
	blockOff := int(obj) - heap.BlockHeaderSize
	n := heap.BlockHeaderSize + class
	b, err := e.Heap().Region().ReadSlice(blockOff, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

// Begin implements engine.Engine; it refuses while chain recovery is
// pending.
func (e *Engine) Begin() (engine.Tx, error) {
	if len(e.pending) > 0 {
		return nil, errors.New("inplace: pending chain recovery not resolved")
	}
	return e.Engine.Begin()
}
