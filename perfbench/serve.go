package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kaminotx/internal/kvstore"
	"kaminotx/internal/obs"
	"kaminotx/internal/server"
	"kaminotx/internal/trace"
	"kaminotx/internal/transport"
	"kaminotx/kamino"
)

// serve-b: the KV server with kaminod's defaults (window 64, batches of up
// to 32 writes, file-backed pool, no injected device latency) on loopback
// inside this process, driven by 2 pipelined connections with YCSB-B
// (95/5 get/put, scrambled Zipfian): a closed loop at the full window for
// capacity, in a traced run followed by an open loop at a fixed rate. On this read-mostly path
// the server, the wire codec and client queueing dominate and the device
// model is never charged, so this workload moves with server changes and
// not with device or engine changes.
const (
	serveWindow   = 64
	serveOpenRate = 10000 // req/s: fixed, so a faster system faces the same offered load
	serveClosedFr = 0.5   // share of a traced run's measured seconds in the closed loop
	serveReadPct  = 95
)

type serveSession struct {
	dir     string
	pool    *kamino.Pool
	srv     *server.Server
	srvReg  *obs.Registry
	served  chan error
	clients []*server.Client
	model   *model
}

// create makes a fresh pool in s.dir, as kaminod does on first start
// (no injected device latency), and serves it.
func (s *serveSession) create(rec *trace.Recorder) error {
	opts := poolOptions(false, rec)
	opts.FlushLatency, opts.FenceLatency = 0, 0
	opts.Dir = s.dir
	var err error
	if s.pool, err = kamino.Create(opts); err != nil {
		return err
	}
	store, err := kvstore.Create(s.pool, 0)
	if err != nil {
		return err
	}
	return s.serve(store, rec)
}

func (s *serveSession) serve(store *kvstore.Store, rec *trace.Recorder) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srvReg = obs.New("server")
	s.srv, err = server.New(ln, server.Options{Store: store, Obs: s.srvReg, Trace: rec})
	if err != nil {
		ln.Close()
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve() }()
	s.clients = nil
	for i := 0; i < workers; i++ {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		if rec != nil {
			cl.EnableTracing(rec)
		}
		s.clients = append(s.clients, cl)
	}
	return nil
}

// stop shuts the server down and closes the pool, which checkpoints it to
// its directory as kaminod does on a clean shutdown.
func (s *serveSession) stop() error {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.clients = nil
	if s.srv != nil {
		s.srv.Close()
		<-s.served // Serve returns once its listener is closed
		s.srv = nil
	}
	if s.pool == nil {
		return nil
	}
	err := s.pool.Close()
	s.pool = nil
	return err
}

func (s *serveSession) remove() {
	_ = s.stop() // teardown of a discarded or finished session
	os.RemoveAll(s.dir)
}

func setupServe(c *config, rec *trace.Recorder, n int) ([]float64, *serveSession, error) {
	var times []float64
	var s *serveSession
	for i := 0; i < n; i++ {
		if s != nil {
			s.remove()
			releaseMemory()
		}
		s = &serveSession{dir: filepath.Join(c.out, fmt.Sprintf("serve-pool-%d", c.seed)), model: newModel(c.keys, workers, c.valueSize)}
		os.RemoveAll(s.dir)
		start := time.Now()
		if err := s.create(rec); err != nil {
			s.remove()
			return nil, nil, err
		}
		if err := s.preload(c); err != nil {
			s.remove()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, s, nil
}

// preload writes version 1 of every key over the wire, pipelined.
func (s *serveSession) preload(c *config) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, c.valueSize)
			var calls []*server.Call
			for k := w; k < c.keys; k += workers {
				fillPayload(val, uint64(k), 1)
				call, err := s.clients[w].Send(&transport.KVRequest{Kind: transport.KVPut, Key: uint64(k), Value: val})
				if err != nil {
					errs[w] = err
					return
				}
				calls = append(calls, call)
				if len(calls) == serveWindow {
					if _, err := calls[0].Wait(); err != nil {
						errs[w] = err
						return
					}
					calls = calls[1:]
				}
			}
			for _, call := range calls {
				if _, err := call.Wait(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.model.preloaded()
	return errors.Join(errs...)
}

// inflight is one sent request awaiting its response.
type inflight struct {
	call      *server.Call
	due, sent time.Time
	key, ver  uint64
	kind      int
}

// drive runs both phases' load on every connection: a sender that issues
// requests (as soon as the window allows, or on the fixed schedule when
// rate > 0) and a collector that takes responses in order. Latency is from
// the due time, which in the closed loop is the send time.
func (s *serveSession) drive(c *config, g *gate, d time.Duration, rate float64, stream uint64, tr *tracing, led *serverLedger) loopResult {
	per := make([]loopResult, workers)
	sendFail := make([]loopResult, workers)
	var sendTime []samples
	if led != nil {
		sendTime = make([]samples, workers)
	}
	z := newZipf(uint64(c.keys), ycsbTheta)
	start := time.Now()
	deadline := start.Add(d)
	total := int(rate * d.Seconds())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ch := make(chan inflight, serveWindow) // sized to the window: the sender never blocks on it
		sem := make(chan struct{}, serveWindow)
		wg.Add(2)
		go func(w int) { // sender
			defer wg.Done()
			defer close(ch)
			r := newRNG(derive(c.seed, stream+uint64(w)))
			val := make([]byte, c.valueSize)
			for n := w; ; n += workers {
				var due time.Time
				if rate > 0 {
					if n >= total {
						return
					}
					due = start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
					// Sleep, not waitUntil: polling senders would keep both
					// processors busy, and the runtime then rarely polls the
					// network, delaying every response by milliseconds.
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				sem <- struct{}{} // window full: the wait counts into the latency
				key := z.key(r)
				p := inflight{key: key, kind: kindRead}
				req := &transport.KVRequest{Kind: transport.KVGet, Key: key, Breakdown: led != nil}
				if r.intn(100) >= serveReadPct {
					p.kind = kindWrite
					p.ver = s.model.issue(key, val)
					req.Kind, req.Value = transport.KVPut, val
				}
				p.sent = time.Now()
				if rate == 0 {
					due = p.sent
				}
				p.due = due
				call, err := s.clients[w].Send(req)
				if led != nil {
					sendTime[w].add(time.Since(p.sent))
				}
				if err != nil {
					sendFail[w].record(opResult{kind: p.kind, err: err})
					<-sem
					return
				}
				p.call = call
				ch <- p
			}
		}(w)
		go func(w int) { // collector
			defer wg.Done()
			lr := &per[w]
			for p := range ch {
				<-p.call.Done
				end := time.Now()
				<-sem
				o := opResult{kind: p.kind, start: p.sent, end: end}
				if p.call.Err != nil {
					o.err = p.call.Err
				} else if err := p.call.Resp.Error(); err != nil {
					o.err = err
				}
				// Closed loop: service time is from the send; open loop:
				// the same, and fromDue adds the generator's lateness.
				lr.record(o)
				if o.err != nil {
					continue
				}
				lr.fromDue[p.kind].add(end.Sub(p.due))
				lr.lag.add(p.sent.Sub(p.due))
				if p.kind == kindWrite {
					s.model.acked(w, p.key, p.ver)
				} else {
					g.fail(s.model.checkRead(p.key, p.call.Resp.Value, p.call.Resp.Found))
				}
				if led != nil {
					led.add(w, p.call.Resp.PhaseNs, end.Sub(p.sent))
					tr.spans.add(w, spanRequest, p.call.Trace, p.sent, end.Sub(p.sent))
				}
			}
			lr.elapsed = time.Since(start)
		}(w)
	}
	wg.Wait()
	var out loopResult
	for i := range per {
		out.absorb(&per[i])
		out.absorb(&sendFail[i])
	}
	if led != nil {
		led.send = append(led.send, merge(sendTime...)...)
	}
	return out
}

// restart is a clean kaminod restart: shut down (the pool checkpoints to
// its directory), then reopen the pool, reattach the store, serve, and
// commit one put acknowledged over the wire.
func (s *serveSession) restart(c *config, g *gate, rec *trace.Recorder, spans *spanLog, key uint64) (restartTimes, error) {
	var t restartTimes
	checkCritical(g, s.pool)
	if err := s.stop(); err != nil {
		return t, fmt.Errorf("shutdown: %w", err)
	}
	releaseMemory()
	t0 := time.Now()
	pool, err := kamino.Open(s.dir, kamino.Options{Trace: rec})
	if err != nil {
		return t, fmt.Errorf("reopen pool: %w", err)
	}
	s.pool = pool
	t1 := time.Now()
	store, err := kvstore.Open(pool)
	if err != nil {
		return t, fmt.Errorf("reopen store: %w", err)
	}
	if err := s.serve(store, rec); err != nil {
		return t, err
	}
	t2 := time.Now()
	val := make([]byte, c.valueSize)
	ver := s.model.issue(key, val)
	if err := s.clients[0].Put("", key, val); err != nil {
		return t, fmt.Errorf("first put after restart: %w", err)
	}
	t3 := time.Now()
	s.model.acked(0, key, ver)
	spans.add(workers, "kamino.Open", 0, t0, t1.Sub(t0))
	spans.add(workers, spanOpen, 0, t1, t2.Sub(t1))
	spans.add(workers, spanFirstTxn, 0, t2, t3.Sub(t2))
	t.crash, t.open, t.first, t.total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	t.stages(pool)
	return t, nil
}

// readBack gets every key over the wire, pipelined, and checks it is the
// last acknowledged write of some connection.
func (s *serveSession) readBack(c *config, g *gate) error {
	cl := s.clients[0]
	calls := make([]*server.Call, 0, serveWindow)
	keys := make([]uint64, 0, serveWindow)
	check := func() error {
		resp, err := calls[0].Wait()
		if err != nil {
			return fmt.Errorf("read-back key %d: %w", keys[0], err)
		}
		g.fail(s.model.checkFinal(keys[0], resp.Value, resp.Found))
		calls, keys = calls[1:], keys[1:]
		return nil
	}
	for k := 0; k < c.keys; k++ {
		call, err := cl.Send(&transport.KVRequest{Kind: transport.KVGet, Key: uint64(k)})
		if err != nil {
			return err
		}
		calls, keys = append(calls, call), append(keys, uint64(k))
		if len(calls) == serveWindow {
			if err := check(); err != nil {
				return err
			}
		}
	}
	for len(calls) > 0 {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

func runServe(c *config, g *gate) (*result, error) {
	r := newResult()
	r.params["keys"] = c.keys
	r.params["value_bytes"] = c.valueSize
	r.params["mix"] = "YCSB-B 95/5 get/put, scrambled Zipfian 0.99"
	r.params["window"] = serveWindow
	r.params["open_rate_per_s"] = serveOpenRate
	if !c.trace {
		m, err := measureServe(c, g, nil, c.setups, plainSession)
		if err != nil {
			return nil, err
		}
		fillEndToEnd(r, m)
		return r, nil
	}
	err := traceRun(c, r, func() (*measured, error) {
		return measureServe(c, g, nil, 1, baseSession)
	}, func(tr *tracing) (*measured, error) {
		return measureServe(c, g, tr, 1, tracedSession)
	})
	return r, err
}

// measureServe runs one serve-b session of the given kind. Restarts come
// after the loops in every kind of session: each one reopens the pool
// from its files and reconnects both clients, which would disturb the
// windows after it.
func measureServe(c *config, g *gate, tr *tracing, setups int, kind sessionKind) (*measured, error) {
	var rec *trace.Recorder
	var spans *spanLog
	var led *serverLedger
	if tr != nil {
		rec, spans, led = tr.rec, tr.spans, &serverLedger{}
	}
	m := &measured{server: led, rateKind: -1}
	var err error
	var s *serveSession
	if m.setup, s, err = setupServe(c, rec, setups); err != nil {
		return nil, err
	}
	defer s.remove()
	endRT := startRuntime()
	// Every window draws from its own generator stream.
	stream := uint64(1000)
	if led != nil {
		led.before = s.srvReg.Snapshot()
	}
	if err := runClosed(m, s.pool, tr, kind.closedFor(c, serveClosedFr), func(d time.Duration) loopResult {
		stream += 10
		return s.drive(c, g, d, 0, stream, tr, led)
	}); err != nil {
		return nil, err
	}
	if led != nil {
		led.after = s.srvReg.Snapshot()
	}
	m.rt = endRT()
	switch kind {
	case baseSession:
		return m, nil
	case tracedSession:
		if err := runOpen(m, c.duration(1-serveClosedFr), func(d time.Duration) loopResult {
			stream += 10
			return s.drive(c, g, d, serveOpenRate, stream, tr, nil)
		}); err != nil {
			return nil, err
		}
	}

	keys := newRNG(derive(c.seed, 800))
	for i := 0; i <= c.restarts; i++ {
		t, err := s.restart(c, g, rec, spans, uint64(keys.intn(c.keys)))
		if err != nil {
			return nil, err
		}
		m.restarts = append(m.restarts, t)
	}
	checkCritical(g, s.pool)
	if kind == plainSession {
		m.settle()
	}
	m.rssMB = liveRSSMB()
	return m, s.readBack(c, g)
}

// serverLedger is the server's own account of each request: the phase
// split every response carries, the client-side remainder, and the
// server's batch and shed counters.
type serverLedger struct {
	mu            sync.Mutex
	phase         [transport.KVPhaseCount]samples
	netQueue      samples
	send          samples
	before, after obs.Snapshot
}

func (l *serverLedger) add(w int, phaseNs []int64, wall time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var server int64
	for i, v := range phaseNs {
		if i < len(l.phase) {
			l.phase[i] = append(l.phase[i], v)
		}
		// decode includes the connection's idle wait for the request
		// bytes, which overlaps the client's own time.
		if i != int(transport.KVPhaseDecode) {
			server += v
		}
	}
	nq := wall.Nanoseconds() - server
	if nq < 0 {
		nq = 0
	}
	l.netQueue = append(l.netQueue, nq)
}

func (l *serverLedger) fill(r *result, closed *loopResult) {
	for _, p := range []transport.KVPhase{transport.KVPhaseDecode, transport.KVPhaseAdmissionWait,
		transport.KVPhaseBatchWait, transport.KVPhaseEngineTxn, transport.KVPhaseOrderWait} {
		r.put("server."+p.String()+"_p50_us", l.phase[p].us(50))
		r.put("server."+p.String()+"_p99_us", l.phase[p].us(99))
	}
	r.put("server.net_queue_p50_us", l.netQueue.us(50))
	r.put("server.net_queue_p99_us", l.netQueue.us(99))
	r.put("client.send_us", l.send.mean()/1e3)
	d := obsDelta{l.before, l.after}
	if b := d.value("batches"); b > 0 {
		r.put("server.batch_ops", d.value("batched_ops")/b)
	}
	if closed.attempted > 0 {
		r.put("server.shed_frac", d.value("shed")/float64(closed.attempted))
	}
}
