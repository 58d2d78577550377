package main

import (
	"errors"
	"fmt"
	"time"

	"kaminotx/internal/tpcc"
	"kaminotx/internal/trace"
	"kaminotx/kamino"
)

// tpcc: TPC-C-lite, 2 workers, closed loop (in a traced run followed by an
// open loop at a fixed rate). Multi-object transactions that allocate and free, the spec's 1%
// NewOrder rollbacks, and hot district rows that make transactions wait on
// their predecessors' backup sync (dependent transactions): the heap
// allocator, the rollback path and applier lag are on the critical path
// here and nowhere else. No tree is involved.
const (
	tpccOpenRate  = 4000 // tx/s, about a third of the closed-loop capacity
	tpccClosedFrq = 0.7  // share of a traced run's measured seconds in the closed loop
)

type tpccSession struct {
	pool    *kamino.Pool
	db      *tpcc.DB
	workers []*tpcc.Worker
	rngs    []*rng
	// rollbacks counts the spec's intentional NewOrder aborts: successes
	// for the metrics, reported separately.
	rollbacks []int
}

func (s *tpccSession) close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

func setupTPCC(c *config, rec *trace.Recorder, n int) ([]float64, *tpccSession, error) {
	var times []float64
	var s *tpccSession
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			releaseMemory()
		}
		start := time.Now()
		pool, err := kamino.Create(poolOptions(false, rec))
		if err != nil {
			return nil, nil, err
		}
		s = &tpccSession{pool: pool}
		s.db, err = tpcc.Load(pool, tpcc.Config{Warehouses: c.tpccWarehouses, CustomersPerD: c.tpccCustomers, Items: c.tpccItems})
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("tpcc load: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	for w := 0; w < workers; w++ {
		s.workers = append(s.workers, tpcc.NewWorker(s.db, int64(derive(c.seed, 400+uint64(w))>>1)))
		s.rngs = append(s.rngs, newRNG(derive(c.seed, 500+uint64(w))))
	}
	s.rollbacks = make([]int, workers)
	return times, s, nil
}

// op draws a profile from the standard mix with the benchmark's own
// generator and calls it.
func (s *tpccSession) op(spans *spanLog) opFunc {
	return func(w int) opResult {
		p := tpccProfile(s.rngs[w])
		wk := s.workers[w]
		o := timed(tpccKind[p], func() error {
			switch p {
			case txNewOrder:
				return wk.NewOrder()
			case txPayment:
				return wk.Payment()
			case txOrderStatus:
				return wk.OrderStatus()
			case txDelivery:
				return wk.Delivery()
			default:
				return wk.StockLevel()
			}
		})
		if errors.Is(o.err, tpcc.ErrSimulatedAbort) {
			s.rollbacks[w]++
			o.err = nil
		}
		spans.add(w, "tpcc."+tpccNames[p], 0, o.start, o.end.Sub(o.start))
		return o
	}
}

// restart reloads the engine over the regions as written and commits one
// Payment; the database's object ids stay valid across the reload.
func (s *tpccSession) restart(g *gate, spans *spanLog) (restartTimes, error) {
	var t restartTimes
	s.pool.Drain()
	checkCritical(g, s.pool)
	t0 := time.Now()
	if err := s.pool.Reload(); err != nil {
		return t, fmt.Errorf("reload: %w", err)
	}
	t1 := time.Now()
	if err := s.workers[0].Payment(); err != nil {
		return t, fmt.Errorf("first payment after restart: %w", err)
	}
	t2 := time.Now()
	spans.add(workers, spanReload, 0, t0, t1.Sub(t0))
	spans.add(workers, spanFirstTxn, 0, t1, t2.Sub(t1))
	t.crash, t.first, t.total = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	t.stages(s.pool)
	return t, nil
}

func runTPCC(c *config, g *gate) (*result, error) {
	r := newResult()
	r.params["warehouses"] = c.tpccWarehouses
	r.params["customers_per_district"] = c.tpccCustomers
	r.params["items"] = c.tpccItems
	r.params["mix"] = "45/43/4/4/4 NewOrder/Payment/OrderStatus/Delivery/StockLevel"
	r.params["open_rate_per_s"] = tpccOpenRate
	if !c.trace {
		m, rb, err := measureTPCC(c, g, nil, c.setups, plainSession)
		if err != nil {
			return nil, err
		}
		fillEndToEnd(r, m)
		r.params["rollbacks"] = rb
		return r, nil
	}
	err := traceRun(c, r, func() (*measured, error) {
		m, _, err := measureTPCC(c, g, nil, 1, baseSession)
		return m, err
	}, func(tr *tracing) (*measured, error) {
		m, _, err := measureTPCC(c, g, tr, 1, tracedSession)
		if err != nil {
			return nil, err
		}
		led := buildLedger(m.events)
		r.put("tpcc.self_us", led.meanSelfByShape(tr.spans.all(), "tpcc."+tpccNames[txNewOrder]))
		return m, nil
	})
	return r, err
}

// measureTPCC runs one tpcc session of the given kind and reports the
// spec's rollbacks it made.
func measureTPCC(c *config, g *gate, tr *tracing, setups int, kind sessionKind) (*measured, int, error) {
	var rec *trace.Recorder
	var spans *spanLog
	if tr != nil {
		rec, spans = tr.rec, tr.spans
	}
	m := &measured{rateKind: kindWrite}
	var err error
	var s *tpccSession
	if m.setup, s, err = setupTPCC(c, rec, setups); err != nil {
		return nil, 0, err
	}
	defer s.close()
	op := s.op(spans)
	restart := func() (restartTimes, error) { return s.restart(g, spans) }
	endRT := startRuntime()
	if err := runClosed(m, s.pool, tr, kind.closedFor(c, tpccClosedFrq), withReloads(kind, m, func(d time.Duration) loopResult {
		return closedLoop(workers, d, op)
	}, restart)); err != nil {
		return nil, 0, err
	}
	m.rt = endRT()
	if err := s.db.ConsistencyCheck(); err != nil {
		g.fail(err)
	}
	if kind == baseSession {
		return m, 0, nil
	}
	if kind == tracedSession {
		if err := runOpen(m, c.duration(1-tpccClosedFrq), func(d time.Duration) loopResult {
			return openFor(workers, tpccOpenRate, d, op)
		}); err != nil {
			return nil, 0, err
		}
		for i := 0; i <= c.reloads; i++ {
			t, err := restart()
			if err != nil {
				return nil, 0, err
			}
			m.restarts = append(m.restarts, t)
		}
	}
	checkCritical(g, s.pool)
	if err := s.db.ConsistencyCheck(); err != nil {
		g.fail(fmt.Errorf("after restarts: %w", err))
	}
	if kind == plainSession {
		m.settle()
	}
	m.rssMB = liveRSSMB()
	rb := 0
	for _, n := range s.rollbacks {
		rb += n
	}
	return m, rb, nil
}
