// Package txcore is the transaction protocol every engine shares (paper
// Figure 2): object locks and the read path, the write set, the intent log,
// the heap flush and commit marker, the newest-first rollback walk, and the
// log-replay/rescan recovery stages. What tells the engines apart is a
// Policy — where the old copy of an object lives and when it is made or
// applied: undo logs the old block on Add, cow edits a shadow and copies it
// back at commit, kamino keeps the copy in a backup its applier reconciles
// after commit, inplace leaves it to the chain neighbours, and nolog keeps
// none.
//
// Keeping synchronization (locks, read sets, the stall accounting) in one
// place and the persist policy in the engines means an invariant enforced
// here holds for all of them — for example, a transaction with an empty
// write set touches no NVM and emits no trace event on any engine.
package txcore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/recovery"
	"kaminotx/internal/trace"
)

// Config is what the core needs to build an engine.
type Config struct {
	// Log sizes the intent log when it is formatted; on Open the geometry
	// comes from the image. Engines without an intent log ignore it.
	Log intentlog.Config

	// Shards tunes the concurrency sharding of the lock table, heap
	// allocator, and intent-log free-slot pool (0 selects each layer's
	// default). Sharding is volatile-only; it never changes what is
	// written to NVM, so any value can reopen any image.
	Shards int
}

// Policy is an engine's persist policy over the core.
type Policy interface {
	// Add makes whatever obj needs before t first modifies it. The core
	// holds obj's write lock and has read ws.Class under it; Add returns
	// the write-set entry to record (cow points its Shadow at the copy).
	Add(t *Tx, obj heap.ObjID, ws WSEntry) (WSEntry, error)

	// Commit makes a transaction with a non-empty write set durable and
	// ends it, with Finish or HandOff.
	Commit(t *Tx) error

	// Abort undoes a write transaction's modifications; the core then
	// releases the slot and the locks. An error refuses the abort and
	// leaves the transaction open.
	Abort(t *Tx) error

	// Recover reconciles one non-free intent-log slot at open: committed
	// transactions roll forward, the others back. Slots are reconciled
	// concurrently: unreconciled transactions never share an object.
	Recover(v intentlog.SlotView) error
}

// Meters are the optional observability series the core feeds. A nil
// field is a series the engine does not report.
type Meters struct {
	Aborts *obs.Counter   // write transactions rolled back
	Copied *obs.Counter   // bytes copied in the critical path
	Copy   *obs.PhaseStat // old-value copy made by Add
	Intent *obs.PhaseStat // per-append intent persist
	Heap   *obs.PhaseStat // write-set flush+fence at commit
	Marker *obs.PhaseStat // commit-marker persist
}

// Engine is the state every engine shares. It implements engine.Engine;
// engines with more to do (kamino's applier, inplace's pending chain
// recovery) embed it and override Begin, Drain, Close or Stats.
type Engine struct {
	name  string
	heap  *heap.Heap
	log   *intentlog.Log // nil for an engine without an intent log
	locks *locktable.Table
	obs   *obs.Registry
	pol   Policy
	m     Meters

	recov  []recovery.StageReport // stage timings of the Open that built us
	tr     atomic.Pointer[trace.Tracer]
	nextID atomic.Uint64 // transaction ids when there is no intent log
	closed atomic.Bool

	commits  *obs.Counter
	depWaits *obs.Counter
	phStall  *obs.PhaseStat // dependent-lock acquisition time
}

// Format formats fresh regions and returns an engine core named name over
// them (logReg is nil for an engine without an intent log). The engine is
// usable once Install has set its policy.
func Format(name string, heapReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	h, err := heap.Format(heapReg)
	if err != nil {
		return nil, err
	}
	var l *intentlog.Log
	if logReg != nil {
		if l, err = intentlog.Format(logReg, cfg.Log); err != nil {
			return nil, err
		}
	}
	return newEngine(name, h, l, heapReg, logReg, cfg.Shards), nil
}

// Attach binds an engine core to existing regions without recovering
// them: Install the policy, then Replay.
func Attach(name string, heapReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	h, err := heap.Attach(heapReg)
	if err != nil {
		return nil, err
	}
	var l *intentlog.Log
	if logReg != nil {
		if l, err = intentlog.Attach(logReg); err != nil {
			return nil, err
		}
	}
	return newEngine(name, h, l, heapReg, logReg, cfg.Shards), nil
}

func newEngine(name string, h *heap.Heap, l *intentlog.Log, heapReg, logReg *nvm.Region, shards int) *Engine {
	o := obs.New(name)
	heapReg.ExportObs(o, "nvm.main")
	if l != nil {
		logReg.ExportObs(o, "nvm.log")
	}
	if shards > 0 {
		h.SetShards(shards)
		if l != nil {
			l.SetShards(shards)
		}
	}
	return &Engine{
		name: name, heap: h, log: l, locks: locktable.NewSharded(shards), obs: o,
		commits:  o.Counter("commits"),
		depWaits: o.Counter("dependent_waits"),
		phStall:  o.Phase(obs.PhaseDependentStall),
	}
}

// Install sets the engine's policy and the series it reports. Call it
// once, before Replay and the first Begin.
func (e *Engine) Install(p Policy, m Meters) { e.pol, e.m = p, m }

// Replay runs the core's recovery stages on pipe: log replay through the
// policy's Recover, then the heap free-list rescan, which must follow
// because replay may rewrite block headers. The stage timings become the
// engine's RecoveryReport.
func (e *Engine) Replay(pipe *recovery.Pipeline) error {
	if e.log != nil {
		if err := pipe.Run(obs.PhaseRecoveryLogReplay, e.Recover); err != nil {
			return err
		}
	}
	if err := pipe.Run(obs.PhaseRecoveryRescan, e.heap.Rescan); err != nil {
		return err
	}
	e.recov = pipe.Report()
	return nil
}

// New formats fresh regions and installs the policy build returns: the
// whole New of an engine with no state beyond its policy.
func New(name string, heapReg, logReg *nvm.Region, cfg Config, build func(*Engine) (Policy, Meters)) (*Engine, error) {
	e, err := Format(name, heapReg, logReg, cfg)
	if err != nil {
		return nil, err
	}
	e.Install(build(e))
	return e, nil
}

// Open attaches to existing regions, installs the policy build returns,
// and runs crash recovery: the whole Open of an engine with no recovery
// stages of its own.
func Open(name string, heapReg, logReg *nvm.Region, cfg Config, build func(*Engine) (Policy, Meters)) (*Engine, error) {
	e, err := Attach(name, heapReg, logReg, cfg)
	if err != nil {
		return nil, err
	}
	e.Install(build(e))
	stages := 1
	if e.log != nil {
		stages = 2
	}
	if err := e.Replay(recovery.New(e.obs, stages)); err != nil {
		return nil, err
	}
	return e, nil
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// Heap implements engine.Engine.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Log returns the intent log (nil for an engine without one).
func (e *Engine) Log() *intentlog.Log { return e.log }

// Locks returns the object lock table.
func (e *Engine) Locks() *locktable.Table { return e.locks }

// Obs implements engine.Engine.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// RecoveryReport implements engine.Engine.
func (e *Engine) RecoveryReport() []recovery.StageReport { return e.recov }

// Drain implements engine.Engine; the core does no post-commit work.
func (e *Engine) Drain() {}

// Close implements engine.Engine: a closed engine commits nothing more.
func (e *Engine) Close() error {
	e.Shut()
	return nil
}

// Shut marks the engine closed and reports whether it already was.
func (e *Engine) Shut() (already bool) { return e.closed.Swap(true) }

// SetTracer implements engine.Engine.
func (e *Engine) SetTracer(t *trace.Tracer) {
	if t != nil && !t.Enabled() {
		t = nil
	}
	e.tr.Store(t)
}

// Tracer returns the attached tracer, nil when tracing is off (one atomic
// load; trace.Tracer methods are nil-safe).
func (e *Engine) Tracer() *trace.Tracer { return e.tr.Load() }

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := engine.Stats{Commits: e.commits.Load(), DependentWaits: e.depWaits.Load()}
	if e.m.Aborts != nil {
		s.Aborts = e.m.Aborts.Load()
	}
	if e.m.Copied != nil {
		s.BytesCopiedCritical = e.m.Copied.Load()
	}
	return s
}

// Recover implements engine.Engine: every non-free intent-log slot goes
// through the policy's Recover, slot groups in parallel.
func (e *Engine) Recover() error {
	if e.log == nil {
		return nil
	}
	return e.log.RecoverParallel(runtime.GOMAXPROCS(0), e.pol.Recover)
}

// ApplyLoggedFrees re-applies the deferred frees logged by a committed
// transaction (idempotent).
func (e *Engine) ApplyLoggedFrees(entries []intentlog.Entry) error {
	for _, ent := range entries {
		if ent.Op == intentlog.OpFree {
			if err := e.heap.ApplyFree(heap.ObjID(ent.Obj)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rollback undoes a transaction's intents newest-first, so an
// alloc-then-write sequence unwinds cleanly: restore puts back each
// written object's old contents (nil when the original was never
// modified), allocations are unwound, and deferred frees never happened.
// tr may be nil: recovery is not traced.
func (e *Engine) Rollback(tr *trace.Tracer, txid uint64, entries []intentlog.Entry, restore func(intentlog.Entry) error) error {
	for i := len(entries) - 1; i >= 0; i-- {
		ent := entries[i]
		switch {
		case ent.Op == intentlog.OpAlloc:
			if err := e.heap.RollbackAlloc(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
		case ent.Op == intentlog.OpWrite && restore != nil:
			if err := restore(ent); err != nil {
				return err
			}
		default:
			continue
		}
		tr.Rollback(txid, ent.Obj)
	}
	return nil
}

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.heap.TouchEpoch(); err != nil {
		return nil, err
	}
	t := &Tx{e: e, ws: make(map[heap.ObjID]WSEntry)}
	if e.log == nil {
		t.id = e.nextID.Add(1)
		return t, nil
	}
	tl, err := e.log.Begin()
	if err != nil {
		return nil, err
	}
	t.tl, t.id = tl, tl.TxID()
	return t, nil
}

// WSEntry is one write-set member.
type WSEntry struct {
	// Class is the object's payload capacity, read under its write lock.
	Class int
	// Writable is false for an object that was only Free'd: it is locked
	// and logged, but writes need an Add first (which makes the copy).
	Writable bool
	// Shadow is the log-region offset of a block copy the transaction
	// edits instead of the original (cow), or 0 when it edits in place.
	// Objects the transaction allocated never have one: nothing else can
	// see them before commit, and an abort unwinds the whole allocation.
	Shadow int
}

// Tx is one transaction; it implements engine.Tx. The exported methods
// beyond engine.Tx are the building blocks policies commit and abort with.
type Tx struct {
	e     *Engine
	tl    *intentlog.TxLog // nil without an intent log
	id    uint64
	done  bool
	began bool // TxBegin traced (at the first write-path event)
	ws    map[heap.ObjID]WSEntry
	reads []heap.ObjID
	frees []heap.ObjID
}

// ID implements engine.Tx.
func (t *Tx) ID() uint64 { return t.id }

// Log returns the transaction's intent-log slot (nil without a log).
func (t *Tx) Log() *intentlog.TxLog { return t.tl }

// WriteSet returns the write set; policies must not modify it.
func (t *Tx) WriteSet() map[heap.ObjID]WSEntry { return t.ws }

func (t *Tx) owner() locktable.Owner { return locktable.Owner(t.id) }

func (t *Tx) unlock(obj heap.ObjID) { t.e.locks.Unlock(uint64(obj), t.owner()) }

// beginTrace returns the tracer, emitting the transaction's TxBegin ahead
// of its first traced event. Deferring it off Begin keeps read-only
// transactions out of the trace entirely: they touch no NVM (the intent
// slot header is initialized lazily too), hold no pending state, and no
// auditor rule consumes a transaction without a write intent.
func (t *Tx) beginTrace() *trace.Tracer {
	tr := t.e.Tracer()
	if tr != nil && !t.began {
		t.began = true
		tr.TxBegin(t.id)
	}
	return tr
}

// lock acquires obj's write lock, attributing any blocking on a prior
// transaction's unreconciled write set to the dependent-stall phase.
func (t *Tx) lock(obj heap.ObjID) {
	if t.e.locks.TryLock(uint64(obj), t.owner()) {
		t.beginTrace().LockAcquire(t.id, uint64(obj))
		return
	}
	t.e.depWaits.Inc()
	start := time.Now()
	t.e.locks.Lock(uint64(obj), t.owner())
	d := time.Since(start)
	t.e.phStall.Observe(d)
	if tr := t.beginTrace(); tr != nil {
		tr.LockAcquire(t.id, uint64(obj))
		tr.Span(string(obs.PhaseDependentStall), t.id, d)
	}
}

// entry returns obj's write-set entry and whether obj was already in the
// write set; on first touch it write-locks obj and reads its class under
// the lock (a committed Free or a rollback rewrites the block header while
// holding it).
func (t *Tx) entry(obj heap.ObjID) (WSEntry, bool, error) {
	if ws, ok := t.ws[obj]; ok {
		return ws, true, nil
	}
	t.lock(obj)
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		t.unlock(obj)
		return WSEntry{}, false, err
	}
	return WSEntry{Class: cls}, false, nil
}

// Add implements engine.Tx: lock (blocking on pending objects), then let
// the policy make its record of obj.
func (t *Tx) Add(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	ws, held, err := t.entry(obj)
	if err != nil || ws.Writable {
		return err
	}
	if ws, err = t.e.pol.Add(t, obj, ws); err != nil {
		if !held {
			t.unlock(obj)
		}
		return err
	}
	ws.Writable = true
	t.ws[obj] = ws
	return nil
}

// Write implements engine.Tx.
func (t *Tx) Write(obj heap.ObjID, off int, data []byte) error {
	if t.done {
		return engine.ErrTxDone
	}
	ws, ok := t.ws[obj]
	if !ok || !ws.Writable {
		return fmt.Errorf("%w: %d", engine.ErrNotInTx, obj)
	}
	if ws.Shadow != 0 {
		if off < 0 || off+len(data) > ws.Class {
			return fmt.Errorf("%w: write [%d,%d) in object of %d bytes",
				heap.ErrOutOfObject, off, off+len(data), ws.Class)
		}
		return t.e.log.Region().Write(ws.Shadow+heap.BlockHeaderSize+off, data)
	}
	if err := t.e.heap.Write(obj, off, data); err != nil {
		return err
	}
	t.e.Tracer().InPlaceWrite(t.id, uint64(obj), int(obj)+off, len(data))
	return nil
}

// Read implements engine.Tx: the transaction's own copy if obj is in the
// write set, else the original under a read lock.
func (t *Tx) Read(obj heap.ObjID) ([]byte, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	ws, ok := t.ws[obj]
	switch {
	case !ok:
		t.e.locks.RLock(uint64(obj), t.owner())
		t.reads = append(t.reads, obj)
	case ws.Shadow != 0:
		return t.e.log.Region().ReadSlice(ws.Shadow+heap.BlockHeaderSize, ws.Class)
	}
	return t.e.heap.Bytes(obj)
}

// Alloc implements engine.Tx. The block is locked with a plain Lock: a
// fresh block can still be held by the transaction that freed it until
// that one is reconciled, which is not a dependent stall.
func (t *Tx) Alloc(size int) (heap.ObjID, error) {
	if t.done {
		return heap.Nil, engine.ErrTxDone
	}
	obj, err := t.e.heap.Reserve(size)
	if err != nil {
		return heap.Nil, err
	}
	cls, err := t.e.heap.ClassOf(obj)
	if err != nil {
		return heap.Nil, err
	}
	t.e.locks.Lock(uint64(obj), t.owner())
	t.beginTrace().LockAcquire(t.id, uint64(obj))
	// Intent first, then the durable header write: a crash in between
	// rolls the allocation back.
	if err := t.Append(intentlog.Entry{Op: intentlog.OpAlloc, Class: uint32(cls), Obj: uint64(obj)}, nil); err != nil {
		t.unlock(obj)
		if relErr := t.e.heap.ReleaseReservation(obj); relErr != nil {
			return heap.Nil, fmt.Errorf("%w (and release failed: %v)", err, relErr)
		}
		return heap.Nil, err
	}
	if err := t.e.heap.CommitAlloc(obj); err != nil {
		return heap.Nil, err
	}
	t.ws[obj] = WSEntry{Class: cls, Writable: true}
	return obj, nil
}

// Free implements engine.Tx: lock and log the intent. The free itself is
// deferred to commit, so an abort has nothing to undo and no copy of the
// object is needed unless the transaction also writes it (Add).
func (t *Tx) Free(obj heap.ObjID) error {
	if t.done {
		return engine.ErrTxDone
	}
	ws, held, err := t.entry(obj)
	if err != nil {
		return err
	}
	if err := t.Append(intentlog.Entry{Op: intentlog.OpFree, Class: uint32(ws.Class), Obj: uint64(obj)}, nil); err != nil {
		if !held {
			t.unlock(obj)
		}
		return err
	}
	t.ws[obj] = ws
	t.frees = append(t.frees, obj)
	return nil
}

// Commit implements engine.Tx. A read-only transaction logged nothing
// (its intent slot header was never written), so it needs no flush, fence,
// commit marker, policy work or trace event: it just drops its read locks
// and its slot.
func (t *Tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.e.closed.Load() {
		return engine.ErrClosed
	}
	if len(t.ws) == 0 {
		if err := t.Finish(); err != nil {
			return err
		}
	} else if err := t.e.pol.Commit(t); err != nil {
		return err
	}
	t.e.commits.Inc()
	return nil
}

// Abort implements engine.Tx. Only a transaction that rolled back a write
// intent counts (and is traced) as an abort: ending a read-only one is
// the same as committing it.
func (t *Tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	if len(t.ws) == 0 {
		return t.Finish()
	}
	if err := t.e.pol.Abort(t); err != nil {
		return err
	}
	if err := t.Finish(); err != nil {
		return err
	}
	if t.e.m.Aborts != nil {
		t.e.m.Aborts.Inc()
	}
	if t.began {
		t.e.Tracer().Abort(t.id)
	}
	return nil
}

// Append durably logs one intent — after copying data into the slot's
// data area, when data is non-nil — and traces it, charging the intent
// persist when the engine reports one. A no-op without an intent log.
func (t *Tx) Append(ent intentlog.Entry, data []byte) error {
	if t.tl == nil {
		return nil
	}
	start := time.Now()
	var err error
	if data != nil {
		_, err = t.tl.AppendWithData(ent, data)
	} else {
		err = t.tl.Append(ent)
	}
	if err != nil {
		return err
	}
	d := time.Since(start)
	if t.e.m.Intent != nil {
		t.e.m.Intent.Observe(d)
	}
	if tr := t.beginTrace(); tr != nil {
		off, n := t.tl.EntryRange(t.tl.Len() - 1)
		tr.IntentAppend(t.id, ent.Obj, off, n, ent.Op.String())
		if t.e.m.Intent != nil {
			tr.Span(string(obs.PhaseIntentPersist), t.id, d)
		}
	}
	return nil
}

// ChargeCopy charges n bytes copied in the critical path since start to
// the Copy phase and the Copied counter.
func (t *Tx) ChargeCopy(start time.Time, n int) {
	d := time.Since(start)
	t.e.m.Copy.Observe(d)
	t.e.m.Copied.Add(uint64(n))
	t.e.Tracer().Span(string(obs.PhaseCriticalCopy), t.id, d)
}

// PersistHeap flushes every write-set block in the heap and fences,
// charging the Heap phase.
func (t *Tx) PersistHeap() error {
	reg := t.e.heap.Region()
	start := time.Now()
	for obj, ws := range t.ws {
		if err := reg.Flush(int(obj)-heap.BlockHeaderSize, heap.BlockHeaderSize+ws.Class); err != nil {
			return err
		}
	}
	reg.Fence()
	d := time.Since(start)
	t.e.m.Heap.Observe(d)
	t.e.Tracer().Span(string(obs.PhaseHeapPersist), t.id, d)
	return nil
}

// MarkCommitted persists the commit marker, the one-line state store that
// is the transaction's atomic commit point, charging the Marker phase. A
// no-op without an intent log.
func (t *Tx) MarkCommitted() error {
	if t.tl == nil {
		return nil
	}
	start := time.Now()
	if err := t.tl.SetState(intentlog.StateCommitted); err != nil {
		return err
	}
	d := time.Since(start)
	t.e.m.Marker.Observe(d)
	if tr := t.e.Tracer(); tr != nil {
		tr.CommitMarker(t.id)
		tr.Span(string(obs.PhaseCommitPersist), t.id, d)
	}
	return nil
}

// ApplyFrees applies the transaction's deferred frees; call it after the
// commit marker.
func (t *Tx) ApplyFrees() error {
	for _, obj := range t.frees {
		if err := t.e.heap.ApplyFree(obj); err != nil {
			return err
		}
	}
	return nil
}

// CommitInPlace is the commit of an engine whose transactions edited the
// heap in place and leave nothing to apply afterwards: persist the write
// set, persist the commit marker, apply the deferred frees, finish.
func (t *Tx) CommitInPlace() error {
	if err := t.PersistHeap(); err != nil {
		return err
	}
	if err := t.MarkCommitted(); err != nil {
		return err
	}
	if err := t.ApplyFrees(); err != nil {
		return err
	}
	return t.Finish()
}

// Rollback durably marks the transaction aborted and undoes its intents
// with Engine.Rollback.
func (t *Tx) Rollback(restore func(intentlog.Entry) error) error {
	if err := t.tl.SetState(intentlog.StateAborted); err != nil {
		return err
	}
	entries, err := t.tl.Entries()
	if err != nil {
		return err
	}
	return t.e.Rollback(t.e.Tracer(), t.id, entries, restore)
}

// Finish ends the transaction: it releases the intent slot and the write
// locks, and drops the read locks first — an upgraded object's read holds
// are absorbed by its write lock and must not outlive it.
func (t *Tx) Finish() error {
	if t.tl != nil {
		if err := t.tl.Release(); err != nil {
			return err
		}
	}
	t.HandOff()
	for obj := range t.ws {
		t.unlock(obj)
	}
	return nil
}

// HandOff ends the transaction but leaves its intent slot and write locks
// to the caller, who releases them later (kamino's applier, once the
// backup has absorbed the write set). Read locks impose no pending window
// and are dropped.
func (t *Tx) HandOff() {
	for _, obj := range t.reads {
		t.e.locks.RUnlock(uint64(obj), t.owner())
	}
	t.done = true
}
