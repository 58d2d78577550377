package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Operation kinds. Each workload's read and write latency metrics come
// from one kind each; other operations count toward throughput only.
const (
	kindRead = iota
	kindWrite
	kindOther
	numKinds
)

// opFunc runs one operation on behalf of worker w. It times only the call
// into the program (input generation and result checks stay outside the
// interval) and reports wrong results to the run's gate; a returned error
// is a failed operation.
type opFunc func(w int) opResult

type opResult struct {
	kind       int
	start, end time.Time
	err        error
}

// timed runs call and returns its interval.
func timed(kind int, call func() error) opResult {
	t0 := time.Now()
	err := call()
	return opResult{kind: kind, start: t0, end: time.Now(), err: err}
}

// loopResult is one measured window.
type loopResult struct {
	attempted, failed uint64
	firstErr          error
	lat               [numKinds]samples // service time: call to return
	fromDue           [numKinds]samples // open loop only: due time to return
	lag               samples           // open loop only: how late each call started
	elapsed           time.Duration
	steal             float64 // share of the host's CPU time stolen during the window
}

// dropSamples frees the per-operation samples, keeping the counts, the
// wall time and the steal.
func (r *loopResult) dropSamples() {
	r.lat, r.fromDue, r.lag = [numKinds]samples{}, [numKinds]samples{}, nil
}

func (r *loopResult) absorb(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.fromDue[k] = append(r.fromDue[k], o.fromDue[k]...)
	}
	r.lag = append(r.lag, o.lag...)
	if o.elapsed > r.elapsed {
		r.elapsed = o.elapsed
	}
}

// opsPerSec counts completed operations over the window's wall time.
func (r *loopResult) opsPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / r.elapsed.Seconds()
}

func (r *loopResult) record(o opResult) {
	r.attempted++
	if o.err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = o.err
		}
		return
	}
	r.lat[o.kind].add(o.end.Sub(o.start))
}

// windowLen is the length of one measured window.
const windowLen = 500 * time.Millisecond

// phase is a measured phase split into short windows. On a shared host
// another tenant's load (hypervisor steal) only ever slows a window down,
// so the end-to-end metrics come from the windows with the least steal,
// and among those from the typical or the less disturbed ones: see quiet,
// windowPct and clean.
type phase struct {
	windows []loopResult
	all     loopResult // every window merged: totals and per-layer figures
}

func (p *phase) dropSamples() {
	for i := range p.windows {
		p.windows[i].dropSamples()
	}
	p.all.dropSamples()
}

func (p *phase) add(w loopResult) {
	elapsed := p.all.elapsed + w.elapsed
	p.windows = append(p.windows, w)
	p.all.absorb(&w)
	p.all.elapsed = elapsed
}

// clean merges the half of the windows (rounded up) that score lowest,
// with their wall times summed.
func (p *phase) clean(score func(w *loopResult) float64) loopResult {
	idx := make([]int, len(p.windows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return score(&p.windows[idx[a]]) < score(&p.windows[idx[b]]) })
	var out loopResult
	var elapsed time.Duration
	for _, i := range idx[:(len(idx)+1)/2] {
		out.absorb(&p.windows[i])
		elapsed += p.windows[i].elapsed
	}
	out.elapsed = elapsed
	return out
}

// quietSteal is the steal share below which a window counts as quiet
// whatever the other windows had: two clock ticks of a 0.5 s window on
// two CPUs, the resolution of the kernel's count.
const quietSteal = 0.02

// quiet returns the windows with the least steal: those at or below the
// median window's share or quietSteal, whichever is larger. When the host
// stole nothing worth counting, that is every window.
func (p *phase) quiet() *phase {
	v := make([]float64, len(p.windows))
	for i := range p.windows {
		v[i] = p.windows[i].steal
	}
	limit := math.Max(median(v), quietSteal)
	var q phase
	for _, w := range p.windows {
		if w.steal <= limit {
			q.add(w)
		}
	}
	return &q
}

// stealSince returns the share of the host's CPU time stolen since the
// cpuTimes reading steal0, total0 (0 where the kernel counts no steal).
func stealSince(steal0, total0 uint64) float64 {
	steal1, total1 := cpuTimes()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// windowed runs run(d/n) n times, n being the number of whole windows in d
// (at least 1), and records each window's steal.
func windowed(d time.Duration, run func(d time.Duration) loopResult) phase {
	n := int(d.Round(windowLen) / windowLen)
	if n < 1 {
		n = 1
	}
	var p phase
	for i := 0; i < n; i++ {
		s0, t0 := cpuTimes()
		w := run(d / time.Duration(n))
		w.steal = stealSince(s0, t0)
		p.add(w)
	}
	return p
}

// closedLoop runs op on each worker back to back for d: a slow system
// receives less load, as callers that wait for each reply would give it.
func closedLoop(workers int, d time.Duration, op opFunc) loopResult {
	per := make([]loopResult, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for time.Now().Before(deadline) {
				r.record(op(w))
			}
			r.elapsed = time.Since(start)
		}(w)
	}
	wg.Wait()
	var out loopResult
	for i := range per {
		out.absorb(&per[i])
	}
	return out
}

// openLoop issues total arrivals on a fixed schedule of rate per second,
// arrival n being due at start + n/rate and handled by worker n mod
// workers. Each latency is measured from the due time, so a stall is
// charged to every arrival it delays; lag records how late each call
// started.
func openLoop(workers int, rate float64, total int, op opFunc) loopResult {
	per := make([]loopResult, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for n := w; n < total; n += workers {
				due := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
				waitUntil(due)
				o := op(w)
				r.record(o)
				if o.err == nil {
					r.fromDue[o.kind].add(o.end.Sub(due))
				}
				r.lag.add(o.start.Sub(due))
			}
			r.elapsed = time.Since(start)
		}(w)
	}
	wg.Wait()
	var out loopResult
	for i := range per {
		out.absorb(&per[i])
	}
	return out
}

// waitUntil returns at due. It sleeps until a millisecond before and then
// polls, yielding to other goroutines: when the process is otherwise idle
// the runtime can wake a sleeping goroutine up to a millisecond late,
// which would charge the generator's own lateness to every request.
func waitUntil(due time.Time) {
	if d := time.Until(due) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openFor is openLoop for the arrivals due within d.
func openFor(workers int, rate float64, d time.Duration, op opFunc) loopResult {
	return openLoop(workers, rate, int(rate*d.Seconds()), op)
}

// gate collects correctness violations from any goroutine; the first one
// fails the run.
type gate struct {
	mu    sync.Mutex
	err   error
	count int
}

func (g *gate) fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.count++
	g.mu.Unlock()
}

func (g *gate) first() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil && g.count > 1 {
		return fmt.Errorf("%w (and %d more violations)", g.err, g.count-1)
	}
	return g.err
}

// span is one call the benchmark made into a layer. ID is the id the
// program's own trace events carry for the same work (the engine
// transaction id, or the request trace id), so engine events join it.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory, one slice per worker so recording takes
// no lock, and writes them out once at the end of the run.
type spanLog struct {
	epoch   time.Time
	max     int
	workers [][]span
	dropped []int
}

func newSpanLog(epoch time.Time, workers, max int) *spanLog {
	return &spanLog{epoch: epoch, max: max, workers: make([][]span, workers), dropped: make([]int, workers)}
}

// add records a span for worker w; a nil log records nothing.
func (l *spanLog) add(w int, name string, id uint64, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	if len(l.workers[w]) >= l.max {
		l.dropped[w]++
		return
	}
	l.workers[w] = append(l.workers[w], span{Name: name, ID: id, Worker: w, Start: start.Sub(l.epoch).Nanoseconds(), Dur: d.Nanoseconds()})
}

// lost counts spans not recorded because a worker's log was full.
func (l *spanLog) lost() int {
	n := 0
	for _, d := range l.dropped {
		n += d
	}
	return n
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	var out []span
	for _, s := range l.workers {
		out = append(out, s...)
	}
	return out
}

func (l *spanLog) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
		if err := enc.Encode(struct {
			Src string `json:"src"`
			span
		}{"bench", s}); err != nil {
			return err
		}
	}
	return nil
}
