package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/locktable"
	"kaminotx/internal/nvm"
	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
)

// traceRingEvents bounds the program's trace ring: about ten thousand
// write transactions of engine and device events, enough for the
// per-transaction ledger, at about 30 MB.
const traceRingEvents = 1 << 18

// spansPerWorker bounds the benchmark's own spans per worker.
const spansPerWorker = 1 << 20

// tracing is the traced run's recording state: the program's recorder
// (engine, device, server and client events) and the benchmark's spans
// around its calls into each layer, on one time base.
type tracing struct {
	rec   *trace.Recorder
	spans *spanLog
}

// newTracing starts the benchmark's span clock together with the
// recorder's, so span starts and event times share one time base.
func newTracing(workers int) *tracing {
	epoch := time.Now()
	return &tracing{rec: trace.NewRecorder(traceRingEvents), spans: newSpanLog(epoch, workers, spansPerWorker)}
}

// writeFile writes the benchmark's spans and the program's retained events
// as JSON lines to one file and returns its path.
func (t *tracing) writeFile(c *config, events []trace.Event) (string, error) {
	path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := t.spans.write(w); err != nil {
		f.Close()
		return "", err
	}
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(struct {
			Src string `json:"src"`
			trace.Event
		}{"program", e}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// criticalPhases are the engine phases a transaction waits for before
// its commit returns; backup_sync and backup_lag run after it.
var criticalPhases = map[string]bool{
	string(obs.PhaseDependentStall):  true,
	string(obs.PhaseCriticalCopy):    true,
	string(obs.PhaseIntentPersist):   true,
	string(obs.PhaseHeapPersist):     true,
	string(obs.PhaseCommitPersist):   true,
	string(obs.PhaseGroupCommitWait): true,
}

// txLedger is one write transaction as the engine's trace events show it.
type txLedger struct {
	critical int64 // ns in critical phases
	phase    map[string]int64
	allocs   int
	aborted  bool
}

// ledger indexes the retained engine events by transaction id. Only
// transactions whose begin event is retained are complete.
type ledger struct {
	txs        map[uint64]*txLedger
	stalls     samples
	backupSync samples
	backupLag  samples
	firstAt    int64 // recorder time of the oldest retained event
}

func buildLedger(events []trace.Event) *ledger {
	l := &ledger{txs: map[uint64]*txLedger{}}
	if len(events) > 0 {
		l.firstAt = events[0].At
	}
	for _, e := range events {
		if e.TxID == 0 || e.Trace != 0 {
			continue
		}
		tx := l.txs[e.TxID]
		if e.Kind == trace.KindTxBegin {
			tx = &txLedger{phase: map[string]int64{}}
			l.txs[e.TxID] = tx
		}
		switch {
		case e.Kind == trace.KindSpan && e.Phase == string(obs.PhaseBackupSync):
			l.backupSync = append(l.backupSync, e.Dur)
		case e.Kind == trace.KindSpan && e.Phase == string(obs.PhaseBackupLag):
			l.backupLag = append(l.backupLag, e.Dur)
		case e.Kind == trace.KindSpan && e.Phase == string(obs.PhaseDependentStall):
			l.stalls = append(l.stalls, e.Dur)
		}
		if tx == nil {
			continue
		}
		switch e.Kind {
		case trace.KindSpan:
			if criticalPhases[e.Phase] {
				tx.critical += e.Dur
				tx.phase[e.Phase] += e.Dur
			}
		case trace.KindIntentAppend:
			if e.Phase == intentlog.OpAlloc.String() {
				tx.allocs++
			}
		case trace.KindAbort:
			tx.aborted = true
		}
	}
	return l
}

// fill reports the engine-side ledger: per write transaction phase means,
// dependent stalls and aborts, and the asynchronous backup work.
func (l *ledger) fill(r *result) {
	n := float64(len(l.txs))
	if n == 0 {
		return
	}
	var intent, commit, heapP, crit float64
	aborts := 0
	for _, tx := range l.txs {
		intent += float64(tx.phase[string(obs.PhaseIntentPersist)])
		commit += float64(tx.phase[string(obs.PhaseCommitPersist)] + tx.phase[string(obs.PhaseGroupCommitWait)])
		heapP += float64(tx.phase[string(obs.PhaseHeapPersist)])
		crit += float64(tx.critical)
		if tx.aborted {
			aborts++
		}
	}
	r.put("intentlog.intent_persist_us", intent/n/1e3)
	r.put("intentlog.commit_persist_us", commit/n/1e3)
	r.put("heap.heap_persist_us", heapP/n/1e3)
	r.put("engine.critical_us_per_txn", crit/n/1e3)
	r.put("engine.aborts_per_txn", float64(aborts)/n)
	r.put("locktable.dependent_waits_per_txn", float64(len(l.stalls))/n)
	r.put("locktable.dependent_stall_p50_us", l.stalls.us(50))
	r.put("locktable.dependent_stall_p99_us", l.stalls.us(99))
	r.put("engine.backup_sync_us", l.backupSync.mean()/1e3)
	r.put("engine.backup_lag_us", l.backupLag.mean()/1e3)
}

// selfTime joins the benchmark's spans named name to the engine
// transactions they carried (by id) and returns the mean of span duration
// minus the transaction's critical engine phases: the time spent above
// the engine, in the store and tree code. It also returns how many spans
// joined.
func (l *ledger) selfTime(spans []span, name string) (float64, int) {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		tx, ok := l.txs[s.ID]
		if !ok {
			continue
		}
		sum += float64(s.Dur - tx.critical)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n) / 1e3, n
}

// meanSelfByShape is selfTime for calls whose transaction id the program
// does not return: the mean duration of the named spans that started
// after the oldest retained event, minus the mean critical engine time of
// the retained transactions that allocate (in TPC-C only NewOrder does).
// Spans and events share the tracing epoch.
func (l *ledger) meanSelfByShape(spans []span, name string) float64 {
	var spanSum float64
	ns := 0
	for _, s := range spans {
		if s.Name == name && s.Start >= l.firstAt {
			spanSum += float64(s.Dur)
			ns++
		}
	}
	var txSum float64
	nt := 0
	for _, tx := range l.txs {
		if tx.allocs > 0 {
			txSum += float64(tx.critical)
			nt++
		}
	}
	if ns == 0 || nt == 0 {
		return 0
	}
	return (spanSum/float64(ns) - txSum/float64(nt)) / 1e3
}

// obsDelta is the change in an engine registry over a measured phase.
type obsDelta struct{ before, after obs.Snapshot }

func (d obsDelta) value(name string) float64 {
	if v, ok := d.after.Counters[name]; ok {
		return float64(v - d.before.Counters[name])
	}
	return float64(d.after.Gauges[name] - d.before.Gauges[name])
}

// fillNVM reports device work per benchmark operation, split by region,
// and what the configured latency model charges for the critical-path
// regions (main heap and intent log; the backup is written off the
// critical path).
func (d obsDelta) fillNVM(r *result, ops float64) {
	if ops == 0 {
		return
	}
	for _, reg := range []string{"main", "backup", "log"} {
		r.put("nvm."+reg+"_lines_per_op", d.value("nvm."+reg+".lines_flushed")/ops)
		r.put("nvm."+reg+"_fences_per_op", d.value("nvm."+reg+".fences")/ops)
	}
	lines := d.value("nvm.main.lines_flushed") + d.value("nvm.log.lines_flushed")
	fences := d.value("nvm.main.fences") + d.value("nvm.log.fences")
	model := lines*float64(flushLatency) + fences*float64(fenceLatency)
	r.put("nvm.model_us_per_op", model/ops/1e3)
	if commits := d.value("commits"); commits > 0 {
		r.put("engine.bytes_copied_async_per_txn", d.value("bytes_copied_async")/commits)
	}
}

// gaugeMax samples a gauge every millisecond until stop is closed and
// returns the largest value seen.
func gaugeMax(reg *obs.Registry, name string, stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var max uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- max
				return
			case <-t.C:
				if v := reg.Snapshot().Gauges[name]; v > max {
					max = v
				}
			}
		}
	}()
	return out
}

// runtimeUse is the Go runtime's allocation and GC pause work over a
// measured window.
type runtimeUse struct {
	mallocs     uint64
	pause, wall time.Duration
}

// startRuntime begins a window; calling the result ends it.
func startRuntime() func() runtimeUse {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	return func() runtimeUse {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return runtimeUse{
			mallocs: after.Mallocs - before.Mallocs,
			pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
			wall:    time.Since(start),
		}
	}
}

func (u runtimeUse) fill(r *result, ops float64) {
	if ops > 0 {
		r.put("runtime.allocs_per_op", float64(u.mallocs)/ops)
	}
	if u.wall > 0 {
		r.put("runtime.gc_pause_us_per_s", float64(u.pause)/1e3/u.wall.Seconds())
	}
}

// standaloneLayers times single layers outside any workload: the device
// model's persist against its configured cost, one intent-log
// transaction, an uncontended lock, heap allocation, and the KV wire
// codec. Regions other than the persist probe carry no latency model, so
// these read the layers' own code cost.
func standaloneLayers(r *result, valueSize int) error {
	lat := nvm.LatencyModel{FlushPerLine: flushLatency, Fence: fenceLatency}
	reg, err := nvm.New(1<<20, nvm.Options{Mode: nvm.ModeFast, Latency: lat})
	if err != nil {
		return err
	}
	for _, lines := range []int{1, 16} {
		const n = 2000
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := reg.Persist((i%64)*1024, lines*nvm.LineSize); err != nil {
				return err
			}
		}
		model := time.Duration(lines)*flushLatency + fenceLatency
		r.put(fmt.Sprintf("nvm.persist_overshoot_%dline", lines), float64(time.Since(start))/n/float64(model))
	}

	cfg := intentlog.Config{Slots: 8, EntriesPerSlot: 8}
	lreg, err := nvm.New(cfg.RegionSize(), nvm.Options{Mode: nvm.ModeFast})
	if err != nil {
		return err
	}
	log, err := intentlog.Format(lreg, cfg)
	if err != nil {
		return err
	}
	const logN = 20000
	start := time.Now()
	for i := 0; i < logN; i++ {
		tl, err := log.Begin()
		if err != nil {
			return err
		}
		if err := tl.Append(intentlog.Entry{Op: intentlog.OpWrite, Class: 64, Obj: uint64(4096 + 64*i%8192)}); err != nil {
			return err
		}
		if err := tl.SetState(intentlog.StateCommitted); err != nil {
			return err
		}
		if err := tl.Release(); err != nil {
			return err
		}
	}
	r.put("intentlog.append_commit_ns", float64(time.Since(start).Nanoseconds())/logN)

	locks := locktable.New()
	const lockN = 200000
	start = time.Now()
	for i := 0; i < lockN; i++ {
		obj := uint64(i & 1023)
		locks.Lock(obj, 1)
		locks.Unlock(obj, 1)
	}
	r.put("locktable.lock_unlock_ns", float64(time.Since(start).Nanoseconds())/lockN)

	if err := heapLayer(r, valueSize); err != nil {
		return err
	}
	return wireLayer(r, valueSize)
}

func heapLayer(r *result, valueSize int) error {
	hreg, err := nvm.New(32<<20, nvm.Options{Mode: nvm.ModeFast})
	if err != nil {
		return err
	}
	h, err := heap.Format(hreg)
	if err != nil {
		return err
	}
	// Bump path: fresh blocks until 16 MiB of payload is allocated.
	var bytes int
	start := time.Now()
	var last heap.ObjID
	for bytes < 16<<20 {
		obj, err := h.Reserve(valueSize)
		if err != nil {
			return err
		}
		if err := h.CommitAlloc(obj); err != nil {
			return err
		}
		bytes += valueSize
		last = obj
	}
	r.put("heap.bump_mb_per_s", float64(bytes)/(1<<20)/time.Since(start).Seconds())
	// Reuse path: reserve and commit a block the free list holds.
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		if err := h.ApplyFree(last); err != nil {
			return err
		}
		t0 := time.Now()
		obj, err := h.Reserve(valueSize)
		if err != nil {
			return err
		}
		if err := h.CommitAlloc(obj); err != nil {
			return err
		}
		total += time.Since(t0)
		last = obj
	}
	r.put("heap.reserve_commit_ns", float64(total.Nanoseconds())/n)
	return nil
}

// frameBytes returns the encoded size of a frame in a running stream: the
// second of two identical frames, since the first carries the stream's
// gob type information.
func frameBytes(send func(e *transport.KVEncoder) error) (int, error) {
	var b bytes.Buffer
	e := transport.NewKVEncoder(&b)
	if err := send(e); err != nil {
		return 0, err
	}
	first := b.Len()
	if err := send(e); err != nil {
		return 0, err
	}
	return b.Len() - first, nil
}

// wireLayer times the KV codec on a put of one value and on the response
// to a get, and reports bytes on the wire per request of the serve-b mix.
func wireLayer(r *result, valueSize int) error {
	val := make([]byte, valueSize)
	fillPayload(val, 1, 1)
	var buf bytes.Buffer
	enc := transport.NewKVEncoder(&buf)
	const n = 20000
	// The first frame of a stream carries gob type information; time the
	// steady state after it.
	if err := enc.Request(&transport.KVRequest{ID: 1, Kind: transport.KVPut, Key: 1, Value: val}); err != nil {
		return err
	}
	buf.Reset()
	start := time.Now()
	for i := 0; i < n; i++ {
		buf.Reset()
		if err := enc.Request(&transport.KVRequest{ID: uint64(i + 2), Kind: transport.KVPut, Key: uint64(i), Value: val}); err != nil {
			return err
		}
	}
	r.put("kvwire.encode_ns", float64(time.Since(start).Nanoseconds())/n)
	putReq := buf.Len()

	getReq, err := frameBytes(func(e *transport.KVEncoder) error {
		return e.Request(&transport.KVRequest{ID: 7, Kind: transport.KVGet, Key: 12345})
	})
	if err != nil {
		return err
	}
	getResp, err := frameBytes(func(e *transport.KVEncoder) error {
		return e.Response(&transport.KVResponse{ID: 7, Found: true, Value: val})
	})
	if err != nil {
		return err
	}
	putResp, err := frameBytes(func(e *transport.KVEncoder) error {
		return e.Response(&transport.KVResponse{ID: 7})
	})
	if err != nil {
		return err
	}
	r.put("kvwire.bytes_per_req", 0.95*float64(getReq+getResp)+0.05*float64(putReq+putResp))

	var stream bytes.Buffer
	renc := transport.NewKVEncoder(&stream)
	for i := 0; i < n+1; i++ {
		if err := renc.Response(&transport.KVResponse{ID: uint64(i), Found: true, Value: val}); err != nil {
			return err
		}
	}
	dec := transport.NewKVDecoder(&stream)
	var resp transport.KVResponse
	if err := dec.Response(&resp); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		resp = transport.KVResponse{}
		if err := dec.Response(&resp); err != nil {
			return err
		}
	}
	r.put("kvwire.decode_ns", float64(time.Since(start).Nanoseconds())/n)
	return nil
}
