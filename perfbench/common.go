package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"kaminotx/internal/obs"
	"kaminotx/internal/trace"
	"kaminotx/kamino"
)

// The device model every checked-in baseline uses: 3D-XPoint-class cost
// per flushed cache line and per fence.
const (
	flushLatency = 300 * time.Nanosecond
	fenceLatency = 500 * time.Nanosecond
	heapSize     = 64 << 20 // kaminod's default heap
	workers      = 2        // client goroutines or connections (the host has 2 vCPUs)
)

// poolOptions is every workload's pool: kamino-simple, the mode kaminod
// creates by default, with the device model charged.
func poolOptions(strict bool, rec *trace.Recorder) kamino.Options {
	return kamino.Options{
		Mode:         kamino.ModeSimple,
		HeapSize:     heapSize,
		Strict:       strict,
		FlushLatency: flushLatency,
		FenceLatency: fenceLatency,
		Trace:        rec,
	}
}

// sessionKind says what a measured session runs after its set-up.
type sessionKind int

const (
	// plainSession gives the end-to-end metrics: the closed loop for the
	// whole run, with the timed restarts between its windows.
	plainSession sessionKind = iota
	// baseSession is the traced run's untraced baseline: the closed loop
	// for half the run.
	baseSession
	// tracedSession runs the closed loop, the open loop at the workload's
	// fixed rate, and the timed restarts, with the recorders on.
	tracedSession
)

// closedFor is how long a session of this kind runs the closed loop;
// tracedFrac is the traced session's share, the rest being its open loop.
func (k sessionKind) closedFor(c *config, tracedFrac float64) time.Duration {
	switch k {
	case baseSession:
		return c.duration(0.5)
	case tracedSession:
		return c.duration(tracedFrac)
	}
	return c.duration(1)
}

// reloadsPerWindow is how many timed clean restarts a plain embedded
// session makes after each closed-loop window. Spread over the run, the
// restarts sample the host as the windows do, not one moment of it.
const reloadsPerWindow = 5

// withReloads makes each closed-loop window of a plain session end with
// reloadsPerWindow timed restarts, outside the window's wall time. Other
// sessions restart in one burst after their loops, so that their trace
// covers one engine incarnation.
func withReloads(kind sessionKind, m *measured, run func(d time.Duration) loopResult, restart func() (restartTimes, error)) func(d time.Duration) loopResult {
	if kind != plainSession {
		return run
	}
	return func(d time.Duration) loopResult {
		w := run(d)
		for i := 0; i < reloadsPerWindow && w.firstErr == nil; i++ {
			t, err := restart()
			if err != nil {
				w.firstErr = fmt.Errorf("restart: %w", err)
				break
			}
			m.restarts = append(m.restarts, t)
		}
		return w
	}
}

// restartTimes is one timed restart: from the crash (or clean reopen)
// call to the first committed transaction, split by step, with the
// recovery pipeline's own stage times.
type restartTimes struct {
	total, crash, open, first      time.Duration
	rescan, replay, attach, warmup time.Duration
	inCrash                        time.Duration // stages run inside the crash call
}

// stages reads the recovery stage times of the pool's current incarnation:
// the engine's report, plus the index attach and warm-up the store's tree
// recorded into the same registry when it reattached.
func (t *restartTimes) stages(p *kamino.Pool) {
	for _, st := range p.RecoveryReport() {
		t.inCrash += st.Duration
	}
	snap := p.Obs().Snapshot()
	t.rescan = snap.Phases[obs.PhaseRecoveryRescan].Total
	t.replay = snap.Phases[obs.PhaseRecoveryLogReplay].Total
	t.attach = snap.Phases[obs.PhaseRecoveryIndexAttach].Total
	t.warmup = snap.Phases[obs.PhaseRecoveryWarmup].Total
}

// measured is what one workload session produced, in the shape every
// workload shares: a closed-loop phase, an open-loop phase at a fixed
// rate, and timed restarts.
type measured struct {
	setup    []float64 // seconds per set-up
	closed   phase
	open     phase
	restarts []restartTimes // [0] is the discarded lazy one
	rt       runtimeUse     // over the measured phases, after set-up
	rssMB    float64        // live resident set after the measured phases
	figures  *result        // a plain session's sample-based figures: see settle

	// rateKind selects the operations client.rate_p50_us reports (-1: all);
	// readsOpen takes the read metrics from the open phase (the restart
	// workload's reads are its post-recovery read-backs).
	rateKind  int
	readsOpen bool

	// traced runs only
	obs      obsDelta // engine registry over a write phase
	obsOps   float64  // benchmark operations that phase ran
	queueMax uint64
	events   []trace.Event
	server   *serverLedger
}

func (m *measured) ttft() []float64 {
	var v []float64
	for _, t := range m.restarts[1:] {
		v = append(v, float64(t.total)/1e6)
	}
	return v
}

// reads is the phase the read metrics come from.
func (m *measured) reads() *phase {
	if m.readsOpen {
		return &m.open
	}
	return &m.closed
}

// rated returns a window's open-loop latencies, measured from the due
// time, of the operations client.rate_p50_us reports.
func (m *measured) rated(w *loopResult) samples {
	if m.rateKind >= 0 {
		return w.fromDue[m.rateKind]
	}
	return merge(w.fromDue[:]...)
}

// windowPct is the median over p's windows of each window's q-th
// percentile of of's samples: the typical window's figure, which up to
// half the windows being disturbed cannot move far.
func windowPct(p *phase, q float64, of func(w *loopResult) samples) float64 {
	var v []float64
	for i := range p.windows {
		if s := of(&p.windows[i]); len(s) > 0 {
			v = append(v, s.us(q))
		}
	}
	return median(v)
}

func latOf(kind int) func(w *loopResult) samples {
	return func(w *loopResult) samples { return w.lat[kind] }
}

// fillEndToEnd reports the plain run's metrics. Those settle took from the
// quiet windows are ops_s over the highest-throughput half of them and
// each latency percentile as the median of their exact percentiles.
func fillEndToEnd(r *result, m *measured) {
	r.count(&m.closed.all)
	r.count(&m.open.all)
	for name, v := range m.figures.metrics {
		r.metrics[name] = v
	}
	for name, v := range m.figures.params {
		r.params[name] = v
	}
	r.put("setup_s", median(m.setup))
	r.put("ttft_ms", lowerHalfMedian(m.ttft()))
	r.put("rss_mb", m.rssMB)
	r.params["restarts"] = len(m.restarts) - 1
}

// settle takes a plain session's throughput and latency figures from its
// per-operation samples and then drops the samples, so that the resident
// set measured next is the program's and not the benchmark's bookkeeping,
// which grows with every operation (about 50 bytes per serve-b request).
func (m *measured) settle() {
	f := newResult()
	closed, reads := m.closed.quiet(), m.reads().quiet()
	fastest := closed.clean(func(w *loopResult) float64 { return -w.opsPerSec() })
	f.put("ops_s", fastest.opsPerSec())
	f.put("read_p50_us", windowPct(reads, 50, latOf(kindRead)))
	f.put("read_p90_us", windowPct(reads, 90, latOf(kindRead)))
	f.put("write_p50_us", windowPct(closed, 50, latOf(kindWrite)))
	f.put("write_p90_us", windowPct(closed, 90, latOf(kindWrite)))
	f.params["tail.read_p99_us"], f.params["tail.write_p99_us"] = tailP99(m)
	f.params["reads"] = len(m.reads().all.lat[kindRead])
	f.params["writes"] = len(m.closed.all.lat[kindWrite])
	f.params["rated"] = len(m.rated(&m.open.all))
	f.params["windows"] = len(m.closed.windows)
	f.params["quiet_windows"] = len(closed.windows)
	m.figures = f
	m.closed.dropSamples()
	m.open.dropSamples()
}

// tailP99 gives the p99s of the operations read_p90_us and write_p90_us
// report, pooled over all windows. Too unsteady on a shared host to bound,
// they go into a plain run's result file and the traced run's per-layer
// metrics.
func tailP99(m *measured) (read, write float64) {
	return m.reads().all.lat[kindRead].us(99), m.closed.all.lat[kindWrite].us(99)
}

// fillLayers reports the traced run's per-layer metrics that every
// workload derives the same way. plain is the untraced closed loop run in
// the same process for the tracing overhead.
func fillLayers(r *result, m *measured, tr *tracing, plain *loopResult) {
	r.count(&m.closed.all)
	r.count(&m.open.all)
	m.obs.fillNVM(r, m.obsOps)
	r.put("engine.backup_queue_depth_max", float64(m.queueMax))
	led := buildLedger(m.events)
	led.fill(r)
	self, joined := led.selfTime(tr.spans.all(), spanUpdate)
	r.put("pbtree.self_us", self)
	r.put("trace.joined_txns", float64(joined))
	if p := plain.opsPerSec(); p > 0 {
		r.put("trace.overhead_frac", 1-m.closed.all.opsPerSec()/p)
	}
	read99, write99 := tailP99(m)
	r.put("tail.read_p99_us", read99)
	r.put("tail.write_p99_us", write99)
	r.put("client.rate_p50_us", windowPct(&m.open, 50, m.rated))
	r.put("client.sched_lag_p50_us", m.open.all.lag.us(50))
	r.put("client.sched_lag_p99_us", m.open.all.lag.us(99))

	timed := m.restarts[1:]
	med := func(f func(t restartTimes) time.Duration) float64 {
		v := make([]float64, len(timed))
		for i, t := range timed {
			v[i] = float64(f(t)) / 1e3
		}
		return median(v)
	}
	r.put("recovery.crash_us", med(func(t restartTimes) time.Duration { return t.crash }))
	r.put("recovery.rescan_us", med(func(t restartTimes) time.Duration { return t.rescan }))
	r.put("recovery.log_replay_us", med(func(t restartTimes) time.Duration { return t.replay }))
	r.put("recovery.index_attach_us", med(func(t restartTimes) time.Duration { return t.attach }))
	r.put("recovery.warmup_us", med(func(t restartTimes) time.Duration { return t.warmup }))
	r.put("recovery.unattributed_us", med(func(t restartTimes) time.Duration { return t.crash - t.inCrash }))
	r.put("recovery.open_us", med(func(t restartTimes) time.Duration { return t.open }))
	r.put("recovery.first_txn_us", med(func(t restartTimes) time.Duration { return t.first }))
	r.put("recovery.first_cycle_ms", float64(m.restarts[0].total)/1e6)
}

// Span names: the benchmark's calls into each layer.
const (
	spanUpdate   = "kvstore.UpdateT"
	spanCrash    = "kamino.Pool.CrashPartial"
	spanReload   = "kamino.Pool.Reload"
	spanOpen     = "kvstore.Open"
	spanFirstTxn = "first_txn"
	spanRequest  = "server.Client.Send-Call.Wait"
)

// releaseMemory returns a torn-down set-up's memory before the next one,
// so the peak resident set measures one live session.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// checkCritical is the Kamino-Tx-Simple gate: no transaction copied data
// in its critical path.
func checkCritical(g *gate, p *kamino.Pool) {
	if b := p.Stats().BytesCopiedCritical; b != 0 {
		g.fail(fmt.Errorf("kamino-simple copied %d bytes in the critical path", b))
	}
}

// traceRun is the traced run's common frame: an untraced closed loop for
// the overhead and runtime baseline, then the traced session, the
// standalone layer timings, and the span file.
func traceRun(c *config, r *result, plainRun func() (*measured, error), tracedRun func(tr *tracing) (*measured, error)) error {
	zeroLayers(r)
	pm, err := plainRun()
	if err != nil {
		return err
	}
	plain := &pm.closed.all
	pm.rt.fill(r, float64(pm.closed.all.attempted+pm.open.all.attempted))
	r.count(plain)
	r.count(&pm.open.all)
	releaseMemory()

	tr := newTracing(workers + 1)
	m, err := tracedRun(tr)
	if err != nil {
		return err
	}
	fillLayers(r, m, tr, plain)
	if m.server != nil {
		m.server.fill(r, &m.closed.all)
	}
	if err := standaloneLayers(r, c.valueSize); err != nil {
		return err
	}
	path, err := tr.writeFile(c, m.events)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d benchmark spans, %d not kept; %d program events retained of %d)\n",
		path, len(tr.spans.all()), tr.spans.lost(), len(m.events), tr.rec.Total())
	r.params["span_file"] = path
	return nil
}

// runClosed runs the closed phase in windows. In a traced run it also
// takes the engine registry and the trace ring around the phase and
// samples the backup queue depth during it.
func runClosed(m *measured, pool *kamino.Pool, tr *tracing, d time.Duration, run func(d time.Duration) loopResult) error {
	var stop chan struct{}
	var qmax <-chan uint64
	if tr != nil {
		m.obs.before = pool.Obs().Snapshot()
		stop = make(chan struct{})
		qmax = gaugeMax(pool.Obs(), "backup_queue_depth", stop)
	}
	m.closed = windowed(d, run)
	if tr != nil {
		close(stop)
		m.queueMax = <-qmax
		m.obs.after = pool.Obs().Snapshot()
		m.events = tr.rec.Events()
		m.obsOps = float64(m.closed.all.attempted)
	}
	if err := m.closed.all.firstErr; err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	return nil
}

// runOpen runs the open phase in windows.
func runOpen(m *measured, d time.Duration, run func(d time.Duration) loopResult) error {
	m.open = windowed(d, run)
	if err := m.open.all.firstErr; err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	return nil
}
