// Package nolog implements the unsafe "No Logging" baseline from the
// paper's Figure 1: transactions edit objects in place with isolation
// (object locks) and durability (flushes at commit) but no atomicity — a
// crash or abort mid-transaction leaves torn state. It exists purely to
// measure the cost that logging mechanisms add on top.
package nolog

import (
	"kaminotx/internal/engine/txcore"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
)

// Config tunes the engine.
type Config struct {
	// Shards tunes the concurrency sharding of the lock table and heap
	// allocator (0 selects each layer's default). Sharding is
	// volatile-only; it never changes what is written to NVM.
	Shards int
}

// New creates an engine over a freshly formatted heap region.
func New(reg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.New("nolog", reg, nil, txcore.Config{Shards: cfg.Shards}, build)
}

// Open attaches to an existing heap region. There is nothing to recover —
// that is the point of this baseline — beyond rebuilding the free lists.
func Open(reg *nvm.Region, cfg Config) (*txcore.Engine, error) {
	return txcore.Open("nolog", reg, nil, txcore.Config{Shards: cfg.Shards}, build)
}

func build(e *txcore.Engine) (txcore.Policy, txcore.Meters) {
	o := e.Obs()
	return policy{}, txcore.Meters{
		Aborts: o.Counter("aborts"),
		Heap:   o.Phase(obs.PhaseHeapPersist),
	}
}

// policy keeps no copy and no log. The trace audit policy for "nolog"
// checks nothing — this baseline is unsafe by design — but its events
// still appear in exported traces.
type policy struct{}

// Add records nothing: the object is locked and validated, no more.
func (policy) Add(_ *txcore.Tx, _ heap.ObjID, ws txcore.WSEntry) (txcore.WSEntry, error) {
	return ws, nil
}

// Commit flushes the in-place edits and applies the frees.
func (policy) Commit(t *txcore.Tx) error { return t.CommitInPlace() }

// Abort cannot restore anything: this baseline has no copy of the old
// data. Modified objects keep their torn contents.
func (policy) Abort(*txcore.Tx) error { return nil }

// Recover is never called: there is no intent log to replay.
func (policy) Recover(intentlog.SlotView) error { return nil }
