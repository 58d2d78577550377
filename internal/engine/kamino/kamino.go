// Package kamino implements the paper's contribution: atomic in-place
// transactional updates with no data copying in the critical path.
//
// Transactions edit the main heap in place after durably recording only the
// addresses of the objects they will touch (the intent log). A second copy
// of the data — the backup — is brought up to date asynchronously after
// commit by the applier; aborts and crash recovery restore the main heap
// from it. Object write locks are held from the write-intent declaration
// until the backup has absorbed the committed values, so a dependent
// transaction (read- or write-set intersecting a prior write-set) blocks
// exactly until main and backup agree on the pending objects — the paper's
// Safety 1 and Safety 2.
//
// With a full-size backup region this is Kamino-Tx-Simple; with a smaller
// one (α < 1) the dynamic backend keeps copies of only the hottest objects
// and the engine is Kamino-Tx-Dynamic.
package kamino

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kaminotx/internal/engine"
	"kaminotx/internal/engine/txcore"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/recovery"
)

// Config tunes the engine.
type Config struct {
	// Log sizes the intent log. Zero values take intentlog.DefaultConfig
	// with DataBytesPerSlot forced to 0 — Kamino-Tx never logs data.
	Log intentlog.Config

	// ApplierWorkers is the number of background backup-sync goroutines,
	// each with its own queue; a committed transaction is routed to a
	// worker by its first object's shard, so per-object copy-back order
	// is preserved (and any routing is safe: a tx's locks are held until
	// its sync completes, so two queued txs never share an object).
	// Defaults to GOMAXPROCS/2, minimum 1.
	ApplierWorkers int

	// Shards tunes the concurrency sharding of the layers under the
	// engine: lock-table buckets, heap allocator shards, and intent-log
	// free-slot shards. Zero selects each layer's default; persistent
	// formats are shard-oblivious, so any value can reopen any image.
	Shards int

	// GroupCommit routes commit-marker persists through a dedicated
	// committer goroutine that absorbs concurrent transactions' markers
	// into one flush+fence epoch. Commit latency gains a hand-off, so it
	// pays off only when commits are frequent enough to share fences;
	// abort and crash-recovery semantics are unchanged (each slot's state
	// word remains that transaction's independent commit point).
	GroupCommit bool

	// BackupIndex, when non-nil on Open, offers a checkpointed
	// dynamic-backend lookup table (encoded by EncodeBackupIndex). It is
	// used only if the engine is dynamic and the main heap's image epoch
	// still equals Epoch — otherwise transactions ran after the snapshot
	// and the full rebuild scan runs instead. A snapshot that fails
	// validation also falls back; it can slow recovery down, never
	// corrupt it.
	BackupIndex *BackupIndexSnapshot
}

// BackupIndexSnapshot is a checkpointed dynamic-backend lookup table plus
// the image epoch it was taken at.
type BackupIndexSnapshot struct {
	Epoch uint64
	Data  []byte
}

func (c Config) withDefaults() Config {
	if c.Log.Slots == 0 {
		c.Log = intentlog.Config{
			Slots:            intentlog.DefaultConfig.Slots,
			EntriesPerSlot:   intentlog.DefaultConfig.EntriesPerSlot,
			DataBytesPerSlot: 0,
		}
	}
	if c.ApplierWorkers <= 0 {
		c.ApplierWorkers = runtime.GOMAXPROCS(0) / 2
		if c.ApplierWorkers < 1 {
			c.ApplierWorkers = 1
		}
	}
	return c
}

func (c Config) core() txcore.Config { return txcore.Config{Log: c.Log, Shards: c.Shards} }

// Engine is the Kamino-Tx transaction engine (the paper's Transaction
// Coordinator plus Log Manager plus backup maintenance).
type Engine struct {
	*txcore.Engine
	backend backend

	applyChs []chan applyReq // one queue per applier worker
	commitCh chan commitReq  // nil unless Config.GroupCommit
	wg       sync.WaitGroup  // applier + committer goroutines
	inFlt    sync.WaitGroup  // outstanding post-commit syncs
	pending  atomic.Int64    // committed txs whose backup sync hasn't finished

	applyErr atomic.Value // error

	grpEpochs  *obs.Counter // group-commit fence epochs issued
	grpCommits *obs.Counter // transactions committed through group commit

	phGrpWait *obs.PhaseStat // commit-marker wait under group commit
	phSync    *obs.PhaseStat // applier backup roll-forward work
	phLag     *obs.PhaseStat // commit → locks-released lag
}

type applyReq struct {
	tl          *intentlog.TxLog
	owner       locktable.Owner
	objs        []lockedObj
	committedAt time.Time
}

// commitReq hands a transaction's commit marker to the group committer;
// done reports when (and whether) the shared fence epoch covered it.
type commitReq struct {
	tl   *intentlog.TxLog
	done chan error
}

type lockedObj struct {
	obj   heap.ObjID
	class int
}

// New formats fresh regions and returns a running engine. If backupReg is
// at least as large as mainReg the engine runs Kamino-Tx-Simple; otherwise
// the backup region is formatted as a dynamic partial backup
// (Kamino-Tx-Dynamic) and its usable fraction of the main heap is the
// paper's α.
func New(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	dynamic := backupReg.Size() < mainReg.Size()
	c, err := txcore.Format(engineName(dynamic), mainReg, logReg, cfg.core())
	if err != nil {
		return nil, err
	}
	backupReg.ExportObs(c.Obs(), "nvm.backup")
	var be backend
	if dynamic {
		bh, err := heap.Format(backupReg)
		if err != nil {
			return nil, err
		}
		be = newDynamicBackend(mainReg, bh, c.Locks(), c.Obs())
	} else if be, err = newSimpleBackend(mainReg, backupReg, c.Obs()); err != nil {
		return nil, err
	}
	e := newEngine(c, be)
	e.start(cfg)
	return e, nil
}

// Open attaches to existing regions, runs crash recovery (rolling committed
// transactions forward into the backup and incomplete ones back from it),
// and returns a running engine.
//
// Recovery runs as a staged pipeline (internal/recovery), surfaced in the
// engine's registry as the index_attach / log_replay / rescan phase spans
// and the recovery_progress gauge. Stage order is forced by data
// dependencies — the backup's lookup state must exist before log replay
// can roll transactions forward or back, and replay may rewrite block
// headers the free-list rescan reads — so parallelism lives inside the
// stages: the backup index restores from a checkpoint when Config's
// snapshot is still epoch-valid, log replay reconciles slot groups
// concurrently, and the heap rescans in parallel at the segment
// directory's cut points.
func Open(mainReg, backupReg, logReg *nvm.Region, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	dynamic := backupReg.Size() < mainReg.Size()
	c, err := txcore.Attach(engineName(dynamic), mainReg, logReg, cfg.core())
	if err != nil {
		return nil, err
	}
	o := c.Obs()
	backupReg.ExportObs(o, "nvm.backup")
	pipe := recovery.New(o, 3)

	var be backend
	err = pipe.Run(obs.PhaseRecoveryIndexAttach, func() error {
		if !dynamic {
			var err error
			be, err = newSimpleBackend(mainReg, backupReg, o)
			return err
		}
		bh, err := heap.Attach(backupReg)
		if err != nil {
			return err
		}
		if err := bh.Rescan(); err != nil {
			return err
		}
		db := newDynamicBackend(mainReg, bh, c.Locks(), o)
		if snap := cfg.BackupIndex; snap != nil && snap.Epoch == c.Heap().Epoch() {
			if err := db.restoreSnapshot(snap.Data); err == nil {
				o.Counter("recovery_index_warm").Inc()
				be = db
				return nil
			}
			// An invalid snapshot downgrades to the scan, never fails
			// the open.
		}
		o.Counter("recovery_index_cold").Inc()
		if err := db.rebuild(); err != nil {
			return err
		}
		be = db
		return nil
	})
	if err != nil {
		return nil, err
	}

	e := newEngine(c, be)
	if err := c.Replay(pipe); err != nil {
		return nil, err
	}
	e.start(cfg)
	return e, nil
}

// EncodeBackupIndex serializes the dynamic backend's lookup table for the
// pool's index checkpoint; ok is false for the simple (full-mirror)
// backend, which keeps no volatile lookup state. Callers must quiesce
// transactions (Drain) first and stamp the result with the heap's current
// epoch.
func (e *Engine) EncodeBackupIndex() (data []byte, ok bool) {
	db, isDyn := e.backend.(*dynamicBackend)
	if !isDyn {
		return nil, false
	}
	return db.encodeSnapshot(), true
}

func engineName(dynamic bool) string {
	if dynamic {
		return "kamino-dynamic"
	}
	return "kamino"
}

// newEngine installs the Kamino-Tx policy on the core and wires the
// registry-backed counters and phase timers; the hot path touches only the
// cached pointers.
func newEngine(c *txcore.Engine, be backend) *Engine {
	o := c.Obs()
	e := &Engine{
		Engine: c, backend: be,
		grpEpochs:  o.Counter("group_commit_epochs"),
		grpCommits: o.Counter("group_committed_txs"),
		phGrpWait:  o.Phase(obs.PhaseGroupCommitWait),
		phSync:     o.Phase(obs.PhaseBackupSync),
		phLag:      o.Phase(obs.PhaseBackupLag),
	}
	c.Install(policy{e}, txcore.Meters{
		Aborts: o.Counter("aborts"),
		Intent: o.Phase(obs.PhaseIntentPersist),
		Heap:   o.Phase(obs.PhaseHeapPersist),
		Marker: o.Phase(obs.PhaseCommitPersist),
	})
	return e
}

func (e *Engine) start(cfg Config) {
	e.applyChs = make([]chan applyReq, cfg.ApplierWorkers)
	for i := range e.applyChs {
		e.applyChs[i] = make(chan applyReq, e.Log().Config().Slots)
	}
	// Live lag gauges: how much committed work the backup appliers still
	// owe. queue_depth counts requests parked across all worker queues
	// (with a per-worker breakdown when there is more than one);
	// pending_txs additionally includes the ones workers are currently
	// rolling forward.
	e.Obs().Gauge("backup_queue_depth", func() uint64 {
		var n uint64
		for _, ch := range e.applyChs {
			n += uint64(len(ch))
		}
		return n
	})
	if len(e.applyChs) > 1 {
		for i := range e.applyChs {
			ch := e.applyChs[i]
			e.Obs().Gauge(fmt.Sprintf("backup_queue_depth.%d", i), func() uint64 {
				return uint64(len(ch))
			})
		}
	}
	e.Obs().Gauge("backup_pending_txs", func() uint64 {
		if n := e.pending.Load(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	for i := 0; i < cfg.ApplierWorkers; i++ {
		e.wg.Add(1)
		go e.applier(e.applyChs[i])
	}
	if cfg.GroupCommit {
		e.commitCh = make(chan commitReq, e.Log().Config().Slots)
		e.wg.Add(1)
		go e.committer()
	}
}

// committer is the group-commit thread: it gathers whatever commit markers
// are pending, persists them under one flush+fence epoch via SetStateBatch,
// and wakes every covered transaction. Like the applier it spins briefly
// before parking, because a parked-goroutine wakeup would be charged to
// every commit's critical path.
func (e *Engine) committer() {
	defer e.wg.Done()
	pending := make([]commitReq, 0, 64)
	tls := make([]*intentlog.TxLog, 0, 64)
	for {
		req, ok := e.nextCommit()
		if !ok {
			return
		}
		pending = append(pending[:0], req)
		// Absorb everything already waiting, up to a full batch.
	drain:
		for len(pending) < cap(pending) {
			select {
			case more, ok := <-e.commitCh:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		tls = tls[:0]
		for _, p := range pending {
			tls = append(tls, p.tl)
		}
		err := e.Log().SetStateBatch(tls, intentlog.StateCommitted)
		e.grpEpochs.Add(1)
		e.grpCommits.Add(uint64(len(pending)))
		for _, p := range pending {
			p.done <- err
		}
	}
}

func (e *Engine) nextCommit() (commitReq, bool) {
	for i := 0; i < applierSpins; i++ {
		select {
		case req, ok := <-e.commitCh:
			return req, ok
		default:
			runtime.Gosched()
		}
	}
	req, ok := <-e.commitCh
	return req, ok
}

// applier is the paper's background Transaction Coordinator thread: it
// rolls the backup forward for committed transactions and only then
// releases the transaction's locks and intent-log slot.
//
// The receive spins briefly before parking: a parked goroutine costs
// microseconds to wake, which would be charged to every dependent
// transaction's critical path — on real hardware the backup writer is a
// polling thread for exactly this reason.
func (e *Engine) applier(ch chan applyReq) {
	defer e.wg.Done()
	for {
		req, ok := e.nextReq(ch)
		if !ok {
			return
		}
		if err := e.applyOne(req); err != nil {
			e.applyErr.CompareAndSwap(nil, err)
		}
		e.pending.Add(-1)
		e.inFlt.Done()
	}
}

// applierSpins tunes the pre-park spin: worthwhile only when a spare core
// can absorb it. On a single-core host spinning just steals time from the
// transaction threads.
var applierSpins = func() int {
	if runtime.NumCPU() <= 1 {
		return 0
	}
	return 2000
}()

func (e *Engine) nextReq(ch chan applyReq) (applyReq, bool) {
	for i := 0; i < applierSpins; i++ {
		select {
		case req, ok := <-ch:
			return req, ok
		default:
			runtime.Gosched()
		}
	}
	req, ok := <-ch
	return req, ok
}

// routeApply picks the worker queue for a committed transaction: the shard
// of its smallest object id (map iteration order is random, so the minimum
// makes routing deterministic per write-set). Any choice is correct — the
// tx's write locks are held until applyOne finishes, so no two queued
// requests share an object — but shard-stable routing keeps a hot object's
// copy-backs on one worker.
func (e *Engine) routeApply(objs []lockedObj) chan applyReq {
	if len(e.applyChs) == 1 || len(objs) == 0 {
		return e.applyChs[0]
	}
	min := objs[0].obj
	for _, lo := range objs[1:] {
		if lo.obj < min {
			min = lo.obj
		}
	}
	h := uint64(min) * 0x9e3779b97f4a7c15 >> 32
	return e.applyChs[h%uint64(len(e.applyChs))]
}

func (e *Engine) applyOne(req applyReq) error {
	tr := e.Tracer()
	txid := req.tl.TxID()
	start := time.Now()
	for _, lo := range req.objs {
		if err := e.backend.syncToBackup(lo.obj, lo.class); err != nil {
			return err
		}
		tr.BackupSync(txid, uint64(lo.obj))
	}
	if err := req.tl.Release(); err != nil {
		return err
	}
	d := time.Since(start)
	e.phSync.Observe(d)
	tr.Span(string(obs.PhaseBackupSync), txid, d)
	// Backup now matches main for the whole write-set: dependent
	// transactions may proceed.
	for _, lo := range req.objs {
		e.Locks().Unlock(uint64(lo.obj), req.owner)
	}
	// The lag from commit to here is the window a dependent transaction
	// on this write-set would have stalled.
	lag := time.Since(req.committedAt)
	e.phLag.Observe(lag)
	tr.Span(string(obs.PhaseBackupLag), txid, lag)
	return nil
}

// Drain implements engine.Engine: blocks until every committed
// transaction's backup sync has completed.
func (e *Engine) Drain() { e.inFlt.Wait() }

// Close implements engine.Engine.
func (e *Engine) Close() error {
	if e.Shut() {
		return nil
	}
	e.inFlt.Wait()
	for _, ch := range e.applyChs {
		close(ch)
	}
	if e.commitCh != nil {
		close(e.commitCh)
	}
	e.wg.Wait()
	return e.err()
}

func (e *Engine) err() error {
	if v := e.applyErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	s := e.Engine.Stats()
	s.BytesCopiedAsync = e.backend.bytesSynced()
	if db, ok := e.backend.(*dynamicBackend); ok {
		s.BackupMisses = db.misses.Load()
		s.BackupEvictions = db.evictions.Load()
		// A dynamic backup miss copies one block in the critical path.
		s.BytesCopiedCritical = db.missBytes.Load()
	}
	return s
}

// Begin implements engine.Engine; it refuses once an applier has failed.
func (e *Engine) Begin() (engine.Tx, error) {
	if err := e.err(); err != nil {
		return nil, fmt.Errorf("kamino: engine failed: %w", err)
	}
	return e.Engine.Begin()
}

// restore copies obj's backup over its main-heap block: the rollback step
// of aborts and crash recovery, the only moment Kamino-Tx copies data
// synchronously for a non-dependent workload.
func (e *Engine) restore(ent intentlog.Entry) error {
	return e.backend.restoreFromBackup(heap.ObjID(ent.Obj), int(ent.Class))
}

// policy is Kamino-Tx: the old copy lives in the backup, is made (if the
// dynamic backend lacks it) before the first in-place write, and is
// reconciled by the applier after commit — which also releases the write
// locks, so dependent transactions wait exactly for that.
type policy struct{ e *Engine }

// Add makes sure a consistent backup copy exists — backup-exists-before-
// modify (paper §3); the dynamic backend may create it on demand — and
// durably logs the object address. No data is copied otherwise.
func (p policy) Add(t *txcore.Tx, obj heap.ObjID, ws txcore.WSEntry) (txcore.WSEntry, error) {
	copied, err := p.e.backend.ensure(obj, ws.Class)
	if err != nil {
		return ws, err
	}
	if copied {
		p.e.Tracer().BackupSync(t.ID(), uint64(obj))
	}
	return ws, t.Append(intentlog.Entry{Op: intentlog.OpWrite, Class: uint32(ws.Class), Obj: uint64(obj)}, nil)
}

// Commit makes the transaction durable and returns without copying any
// data: the backup sync happens asynchronously, and the write locks and
// the intent slot are released by the applier once main and backup agree.
func (p policy) Commit(t *txcore.Tx) error {
	e := p.e
	if err := t.PersistHeap(); err != nil {
		return err
	}
	// Commit point. Under group commit the marker persist is delegated to
	// the committer, which folds concurrent markers into one fence epoch;
	// the slot's state word is still this transaction's atomic commit
	// point either way.
	if ch := e.commitCh; ch != nil {
		start := time.Now()
		done := make(chan error, 1)
		ch <- commitReq{tl: t.Log(), done: done}
		if err := <-done; err != nil {
			return err
		}
		d := time.Since(start)
		e.phGrpWait.Observe(d)
		if tr := e.Tracer(); tr != nil {
			tr.CommitMarker(t.ID())
			tr.Span(string(obs.PhaseGroupCommitWait), t.ID(), d)
		}
	} else if err := t.MarkCommitted(); err != nil {
		return err
	}
	if err := t.ApplyFrees(); err != nil {
		return err
	}
	objs := make([]lockedObj, 0, len(t.WriteSet()))
	for obj, ws := range t.WriteSet() {
		objs = append(objs, lockedObj{obj: obj, class: ws.Class})
	}
	t.HandOff()
	e.inFlt.Add(1)
	e.pending.Add(1)
	e.routeApply(objs) <- applyReq{tl: t.Log(), owner: locktable.Owner(t.ID()), objs: objs, committedAt: time.Now()}
	return nil
}

// Abort restores every modified object from the backup.
func (p policy) Abort(t *txcore.Tx) error { return t.Rollback(p.e.restore) }

// Recover implements the paper's recovery procedure for one slot:
// committed transactions are rolled forward into the backup (after
// re-applying their deferred frees); running or aborted transactions are
// rolled back from the backup. Incomplete transactions are treated the
// same as aborted ones.
//
// Slots are reconciled concurrently (one goroutine per slot group): the
// engine's locking guarantees unreconciled transactions never overlap on
// an object, the backends' copies take sharded or single mutexes, and the
// strict NVM region stripes its line locks — so per-slot work is
// independent.
func (p policy) Recover(v intentlog.SlotView) error {
	e := p.e
	if v.State == intentlog.StateCommitted {
		if err := e.ApplyLoggedFrees(v.Entries); err != nil {
			return err
		}
		for _, ent := range v.Entries {
			if err := e.backend.syncToBackup(heap.ObjID(ent.Obj), int(ent.Class)); err != nil {
				return err
			}
		}
	} else if err := e.Rollback(nil, 0, v.Entries, e.restore); err != nil {
		return err
	}
	return v.Free()
}
