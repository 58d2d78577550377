package main

import (
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/trace"
	"kaminotx/kamino"
)

// ycsb-a: the embedded store under YCSB-A (50/50 read/update, scrambled
// Zipfian θ=0.99), 2 goroutines, closed loop (in a traced run followed by
// an open loop at a fixed rate). This is the paper's Figure 12 write path:
// device model, intent log, lock table, engine and tree do all the work;
// no network layer runs.
const (
	ycsbTheta     = 0.99
	ycsbOpenRate  = 20000 // ops/s, about a third of the closed-loop capacity
	ycsbClosedFrq = 0.7   // share of a traced run's measured seconds in the closed loop
)

// kvSession is an embedded store with its payload model.
type kvSession struct {
	pool  *kamino.Pool
	store *kvstore.Store
	model *model
}

func (s *kvSession) close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// setupKV creates n sessions in turn, timing pool creation plus preload of
// every key, and keeps the last; the others are torn down. The keys are
// inserted by the benchmark's workers, interleaved.
func setupKV(c *config, strict bool, rec *trace.Recorder, n int) ([]float64, *kvSession, error) {
	var times []float64
	var s *kvSession
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			releaseMemory()
		}
		start := time.Now()
		pool, err := kamino.Create(poolOptions(strict, rec))
		if err != nil {
			return nil, nil, err
		}
		s = &kvSession{pool: pool, model: newModel(c.keys, workers, c.valueSize)}
		if s.store, err = kvstore.Create(pool, 0); err != nil {
			s.close()
			return nil, nil, err
		}
		if err := preloadKV(s.store, c.keys, c.valueSize); err != nil {
			s.close()
			return nil, nil, err
		}
		s.model.preloaded()
		times = append(times, time.Since(start).Seconds())
	}
	return times, s, nil
}

func preloadKV(store *kvstore.Store, keys, valueSize int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, valueSize)
			for k := w; k < keys; k += workers {
				fillPayload(buf, uint64(k), 1)
				if err := store.Insert(uint64(k), buf); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ycsbOp is one YCSB-A operation per call; reads are checked against the
// model outside the timed interval.
func (s *kvSession) ycsbOp(c *config, g *gate, spans *spanLog, stream uint64) opFunc {
	z := newZipf(uint64(c.keys), ycsbTheta)
	rngs := make([]*rng, workers)
	bufs := make([][]byte, workers)
	for w := range rngs {
		rngs[w] = newRNG(derive(c.seed, stream+uint64(w)))
		bufs[w] = make([]byte, c.valueSize)
	}
	return func(w int) opResult {
		r := rngs[w]
		key := z.key(r)
		if r.intn(2) == 0 {
			var val []byte
			var found bool
			o := timed(kindRead, func() (err error) {
				val, found, err = s.store.Read(key)
				return err
			})
			if o.err == nil {
				g.fail(s.model.checkRead(key, val, found))
			}
			return o
		}
		ver := s.model.issue(key, bufs[w])
		var txid uint64
		o := timed(kindWrite, func() (err error) {
			txid, err = s.store.UpdateT(key, bufs[w])
			return err
		})
		spans.add(w, spanUpdate, txid, o.start, o.end.Sub(o.start))
		if o.err == nil {
			s.model.acked(w, key, ver)
		}
		return o
	}
}

// restart is one clean restart of the embedded store: Reload rebuilds the
// engine over the regions as written (rescan, log replay), the store
// reattaches its tree, and one update commits.
func (s *kvSession) restart(c *config, g *gate, spans *spanLog, key uint64) (restartTimes, error) {
	var t restartTimes
	buf := make([]byte, c.valueSize)
	s.pool.Drain()
	checkCritical(g, s.pool)
	t0 := time.Now()
	if err := s.pool.Reload(); err != nil {
		return t, fmt.Errorf("reload: %w", err)
	}
	t1 := time.Now()
	store, err := kvstore.Open(s.pool)
	if err != nil {
		return t, fmt.Errorf("reopen store: %w", err)
	}
	s.store = store
	t2 := time.Now()
	ver := s.model.issue(key, buf)
	txid, err := s.store.UpdateT(key, buf)
	if err != nil {
		return t, fmt.Errorf("first update after restart: %w", err)
	}
	t3 := time.Now()
	s.model.acked(0, key, ver)
	spans.add(workers, spanReload, 0, t0, t1.Sub(t0))
	spans.add(workers, spanOpen, 0, t1, t2.Sub(t1))
	spans.add(workers, spanUpdate, txid, t2, t3.Sub(t2))
	t.crash, t.open, t.first, t.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	t.stages(s.pool)
	return t, nil
}

// readBack is the end-of-run gate: every key holds the last acknowledged
// write of some writer.
func (s *kvSession) readBack(c *config, g *gate) error {
	for k := 0; k < c.keys; k++ {
		val, found, err := s.store.Read(uint64(k))
		if err != nil {
			return fmt.Errorf("read-back key %d: %w", k, err)
		}
		g.fail(s.model.checkFinal(uint64(k), val, found))
	}
	return s.store.Tree().CheckInvariants()
}

func runYCSB(c *config, g *gate) (*result, error) {
	r := newResult()
	r.params["keys"] = c.keys
	r.params["value_bytes"] = c.valueSize
	r.params["mix"] = "YCSB-A 50/50 read/update, scrambled Zipfian 0.99"
	r.params["open_rate_per_s"] = ycsbOpenRate
	if !c.trace {
		m, err := measureYCSB(c, g, nil, c.setups, plainSession)
		if err != nil {
			return nil, err
		}
		fillEndToEnd(r, m)
		return r, nil
	}
	err := traceRun(c, r, func() (*measured, error) {
		return measureYCSB(c, g, nil, 1, baseSession)
	}, func(tr *tracing) (*measured, error) {
		return measureYCSB(c, g, tr, 1, tracedSession)
	})
	return r, err
}

// measureYCSB runs one ycsb-a session of the given kind.
func measureYCSB(c *config, g *gate, tr *tracing, setups int, kind sessionKind) (*measured, error) {
	var rec *trace.Recorder
	var spans *spanLog
	if tr != nil {
		rec, spans = tr.rec, tr.spans
	}
	m := &measured{rateKind: kindWrite}
	var err error
	var s *kvSession
	if m.setup, s, err = setupKV(c, false, rec, setups); err != nil {
		return nil, err
	}
	defer s.close()
	op := s.ycsbOp(c, g, spans, 100)
	keys := newRNG(derive(c.seed, 300))
	restart := func() (restartTimes, error) {
		return s.restart(c, g, spans, uint64(keys.intn(c.keys)))
	}
	endRT := startRuntime()
	if err := runClosed(m, s.pool, tr, kind.closedFor(c, ycsbClosedFrq), withReloads(kind, m, func(d time.Duration) loopResult {
		return closedLoop(workers, d, op)
	}, restart)); err != nil {
		return nil, err
	}
	m.rt = endRT()
	if kind == baseSession {
		return m, nil
	}
	if kind == tracedSession {
		open := s.ycsbOp(c, g, spans, 200)
		if err := runOpen(m, c.duration(1-ycsbClosedFrq), func(d time.Duration) loopResult {
			return openFor(workers, ycsbOpenRate, d, open)
		}); err != nil {
			return nil, err
		}
		for i := 0; i <= c.reloads; i++ {
			t, err := restart()
			if err != nil {
				return nil, err
			}
			m.restarts = append(m.restarts, t)
		}
	}
	checkCritical(g, s.pool)
	if kind == plainSession {
		m.settle()
	}
	m.rssMB = liveRSSMB()
	return m, s.readBack(c, g)
}
