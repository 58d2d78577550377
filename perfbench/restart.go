package main

import (
	"fmt"
	"sync"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/trace"
)

// restart: a strict pool (full crash simulation) cycles through
// acknowledged updates, a crash, recovery and a checked read-back. Only
// this workload exercises the device's crash, the heap rescan and log
// replay after a real loss, the cold index attach and the engine
// construction that follows. Each cycle dirties a fresh tenth of the keys,
// so no restart can reuse an index checkpoint: every one is cold.
const restartReadRate = 20000 // read-back arrivals per second after each recovery

func runRestart(c *config, g *gate) (*result, error) {
	r := newResult()
	r.params["keys"] = c.keys
	r.params["value_bytes"] = c.valueSize
	r.params["dirty_per_cycle"] = c.restartDirty
	r.params["read_back_rate_per_s"] = restartReadRate
	if !c.trace {
		m, err := measureRestart(c, g, nil, c.setups, c.duration(1))
		if err != nil {
			return nil, err
		}
		fillEndToEnd(r, m)
		return r, nil
	}
	err := traceRun(c, r, func() (*measured, error) {
		return measureRestart(c, g, nil, 1, c.duration(0.5))
	}, func(tr *tracing) (*measured, error) {
		return measureRestart(c, g, tr, 1, c.duration(0.5))
	})
	return r, err
}

// updateKeys has the two writers update disjoint halves of keys, back to
// back, and records each acknowledged write in the model.
func updateKeys(c *config, s *kvSession, keys []uint64, spans *spanLog) loopResult {
	per := make([]loopResult, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, c.valueSize)
			for i := w; i < len(keys); i += workers {
				key := keys[i]
				ver := s.model.issue(key, buf)
				var txid uint64
				o := timed(kindWrite, func() (err error) {
					txid, err = s.store.UpdateT(key, buf)
					return err
				})
				per[w].record(o)
				spans.add(w, spanUpdate, txid, o.start, o.end.Sub(o.start))
				if o.err == nil {
					s.model.acked(w, key, ver)
				}
			}
		}(w)
	}
	wg.Wait()
	var out loopResult
	for i := range per {
		out.absorb(&per[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// crashCycle crashes the drained pool, reopens the store and commits one
// update of key for writer 0.
func crashCycle(c *config, s *kvSession, spans *spanLog, seed int64, key uint64) (restartTimes, error) {
	var t restartTimes
	buf := make([]byte, c.valueSize)
	s.pool.Drain()
	t0 := time.Now()
	if err := s.pool.CrashPartial(seed); err != nil {
		return t, fmt.Errorf("crash: %w", err)
	}
	t1 := time.Now()
	store, err := kvstore.Open(s.pool)
	if err != nil {
		return t, fmt.Errorf("reopen store after crash: %w", err)
	}
	s.store = store
	t2 := time.Now()
	ver := s.model.issue(key, buf)
	txid, err := s.store.UpdateT(key, buf)
	if err != nil {
		return t, fmt.Errorf("first update after crash: %w", err)
	}
	t3 := time.Now()
	s.model.acked(0, key, ver)
	spans.add(workers, spanCrash, 0, t0, t1.Sub(t0))
	spans.add(workers, spanOpen, 0, t1, t2.Sub(t1))
	spans.add(workers, spanUpdate, txid, t2, t3.Sub(t2))
	t.crash, t.open, t.first, t.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	t.stages(s.pool)
	return t, nil
}

// readKeys reads keys back on a fixed schedule and checks each holds its
// last acknowledged write.
func readKeys(s *kvSession, g *gate, keys []uint64) loopResult {
	next := make([]int, workers)
	return openLoop(workers, restartReadRate, len(keys), func(w int) opResult {
		key := keys[w+next[w]*workers]
		next[w]++
		var val []byte
		var found bool
		o := timed(kindRead, func() (err error) {
			val, found, err = s.store.Read(key)
			return err
		})
		if o.err == nil {
			g.fail(s.model.checkFinal(key, val, found))
		}
		return o
	})
}

// measureRestart runs restart cycles for d after set-up. The first cycle
// pays lazy set-up and is reported separately; the e2e metrics cover the
// rest: update latency and rate (closed), read-back latency (reads, and
// from the schedule for client.rate_p50_us), and time to first transaction.
func measureRestart(c *config, g *gate, tr *tracing, setups int, d time.Duration) (*measured, error) {
	var rec *trace.Recorder
	var spans *spanLog
	if tr != nil {
		rec, spans = tr.rec, tr.spans
	}
	// Each cycle is one window: its updates in the closed phase, its
	// read-back in the open phase.
	m := &measured{rateKind: kindRead, readsOpen: true}
	var err error
	var s *kvSession
	if m.setup, s, err = setupKV(c, true, rec, setups); err != nil {
		return nil, err
	}
	defer s.close()
	endRT := startRuntime()
	order := perm(c.keys, newRNG(derive(c.seed, 900)))
	dirty := func(cycle int) []uint64 {
		keys := make([]uint64, c.restartDirty)
		for i := range keys {
			keys[i] = order[(cycle*c.restartDirty+i)%c.keys]
		}
		return keys
	}
	deadline := time.Now().Add(d)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		s0, t0 := cpuTimes()
		keys := dirty(cycle)
		upd := updateKeys(c, s, keys, spans)
		if err := upd.firstErr; err != nil {
			return nil, fmt.Errorf("cycle %d updates: %w", cycle, err)
		}
		// keys[0] is writer 0's, so its final value stays exactly known.
		t, err := crashCycle(c, s, spans, int64(c.seed)+int64(cycle), keys[0])
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if err := s.store.Tree().CheckInvariants(); err != nil {
			g.fail(fmt.Errorf("cycle %d: tree invariants after crash: %w", cycle, err))
		}
		checkCritical(g, s.pool)
		back := readKeys(s, g, keys)
		if err := back.firstErr; err != nil {
			return nil, fmt.Errorf("cycle %d read-back: %w", cycle, err)
		}
		m.restarts = append(m.restarts, t)
		if cycle == 0 {
			continue
		}
		upd.steal = stealSince(s0, t0)
		back.steal = upd.steal
		m.closed.add(upd)
		m.open.add(back)
	}
	m.rt = endRT()

	if tr != nil {
		// The ledger needs one engine incarnation: a final update phase
		// after the last recovery, with the registry and trace around it.
		m.obs.before = s.pool.Obs().Snapshot()
		stop := make(chan struct{})
		qmax := gaugeMax(s.pool.Obs(), "backup_queue_depth", stop)
		upd := updateKeys(c, s, dirty(len(m.restarts)), spans)
		close(stop)
		m.queueMax = <-qmax
		m.obs.after = s.pool.Obs().Snapshot()
		m.events = tr.rec.Events()
		m.obsOps = float64(upd.attempted)
		if err := upd.firstErr; err != nil {
			return nil, err
		}
		s.pool.Drain()
	}
	if tr == nil {
		m.settle()
	}
	m.rssMB = liveRSSMB()
	return m, s.readBack(c, g)
}
