package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileKnownSets(t *testing.T) {
	var hundred samples
	for i := int64(1); i <= 100; i++ {
		hundred = append(hundred, 101-i) // unsorted on purpose
	}
	cases := []struct {
		name string
		s    samples
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single", samples{7}, 99, 7},
		{"pair median", samples{10, 20}, 50, 15},
		{"odd median", samples{3, 1, 2}, 50, 2},
		{"1..100 p50", hundred, 50, 50.5},
		{"1..100 p99", hundred, 99, 99.01},
		{"1..100 p0", hundred, 0, 1},
		{"1..100 p100", hundred, 100, 100},
		{"ties", samples{5, 5, 5, 5}, 90, 5},
	}
	for _, c := range cases {
		if got := c.s.percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := lowerHalfMedian([]float64{9, 1, 3, 100, 2}); got != 2 {
		t.Errorf("lowerHalfMedian = %v, want 2 (median of 1, 2, 3)", got)
	}
	p := phase{}
	for _, ops := range []uint64{100, 10, 90, 20} {
		p.add(loopResult{attempted: ops, elapsed: 1e9, lat: [numKinds]samples{kindRead: {int64(ops)}}})
	}
	best := p.clean(func(w *loopResult) float64 { return -w.opsPerSec() })
	if best.attempted != 190 || best.opsPerSec() != 95 || best.lat[kindRead].percentile(50) != 95 {
		t.Errorf("clean kept %d ops at %v/s, want the 100 and 90 windows", best.attempted, best.opsPerSec())
	}
	p.add(loopResult{attempted: 1, elapsed: 1e9}) // no reads: skipped
	if got := windowPct(&p, 50, latOf(kindRead)); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("windowPct = %v us, want 0.055 (median of the windows' 100, 10, 90 and 20 ns)", got)
	}
	if q := p.quiet(); len(q.windows) != len(p.windows) {
		t.Errorf("quiet kept %d of %d windows without steal, want all", len(q.windows), len(p.windows))
	}
	var stolen phase
	for i, steal := range []float64{0, 0.3, 0.01, 0.1} {
		stolen.add(loopResult{attempted: uint64(i), elapsed: 1e9, steal: steal})
	}
	if q := stolen.quiet(); len(q.windows) != 2 || q.all.attempted != 2 {
		t.Errorf("quiet kept %d windows (%d ops), want the 0 and 0.01 steal ones", len(q.windows), q.all.attempted)
	}
}

func TestCheckerRejectsWrongPayloadAndLostKey(t *testing.T) {
	const keys, size = 8, 64
	m := newModel(keys, 2, size)
	m.preloaded()
	buf := make([]byte, size)
	ver := m.issue(3, buf)
	m.acked(1, 3, ver)
	if err := m.checkRead(3, buf, true); err != nil {
		t.Fatalf("valid read rejected: %v", err)
	}
	if err := m.checkFinal(3, buf, true); err != nil {
		t.Fatalf("valid final read rejected: %v", err)
	}

	planted := append([]byte(nil), buf...)
	planted[size-1] ^= 0xFF
	if m.checkRead(3, planted, true) == nil || m.checkFinal(3, planted, true) == nil {
		t.Error("planted wrong payload accepted")
	}
	other := make([]byte, size)
	fillPayload(other, 4, 1)
	if m.checkRead(3, other, true) == nil {
		t.Error("another key's payload accepted")
	}
	if m.checkRead(3, buf, false) == nil || m.checkFinal(3, buf, false) == nil {
		t.Error("deleted key accepted")
	}
	future := make([]byte, size)
	fillPayload(future, 3, ver+1)
	if m.checkRead(3, future, true) == nil {
		t.Error("never-written version accepted")
	}
	stale := make([]byte, size)
	fillPayload(stale, 3, 1)
	if m.checkRead(3, stale, true) != nil {
		t.Error("an earlier written version is a valid concurrent read")
	}
	if m.checkFinal(3, stale, true) == nil {
		t.Error("final read-back accepted an overwritten version")
	}
	fillPayload(stale, 5, 1)
	if err := m.checkFinal(5, stale, true); err != nil {
		t.Errorf("untouched key's preload rejected: %v", err)
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	z := newZipf(1000, ycsbTheta)
	a, b, c := newRNG(derive(7, 1)), newRNG(derive(7, 1)), newRNG(derive(8, 1))
	same, differ := true, false
	hits := make([]int, 1000)
	for i := 0; i < 10000; i++ {
		ka, kb, kc := z.key(a), z.key(b), z.key(c)
		same = same && ka == kb
		differ = differ || ka != kc
		hits[ka]++
	}
	if !same || !differ {
		t.Fatalf("same seed must repeat (%v) and another seed must differ (%v)", same, differ)
	}
	max := 0
	for _, h := range hits {
		if h > max {
			max = h
		}
	}
	if max < 500 { // the hottest key of Zipfian 0.99 over 1000 keys draws ~13%
		t.Errorf("hottest key drew %d of 10000; distribution is not skewed", max)
	}
	mix := make([]int, 5)
	r := newRNG(1)
	for i := 0; i < 100000; i++ {
		mix[tpccProfile(r)]++
	}
	for p, want := range []float64{0.45, 0.43, 0.04, 0.04, 0.04} {
		if got := float64(mix[p]) / 100000; math.Abs(got-want) > 0.01 {
			t.Errorf("profile %s drawn %.3f, want %.2f", tpccNames[p], got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the declared metrics and the
// repository's BENCHMARK.json in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, benchmark has %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
}

// TestTinyRunEmitsEveryMetric runs every workload at a tiny size, plain
// and traced, and checks that each run passes its gates and reports every
// declared metric with its unit; end-to-end values must be positive.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := defaultConfig()
			c.workload, c.seed, c.seconds, c.trace = name, 3, 0.4, traced
			c.root = t.TempDir()
			c.out = c.root
			c.keys, c.setups, c.reloads, c.restarts, c.restartDirty = 400, 2, 2, 2, 100
			c.tpccWarehouses, c.tpccCustomers, c.tpccItems = 1, 20, 200
			var g gate
			r, err := workloads[name](&c, &g)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := g.first(); err != nil {
				t.Fatalf("%s traced=%v: gate: %v", name, traced, err)
			}
			if err := checkNames(r, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, r.attempted, r.failed)
			}
			if traced {
				continue
			}
			for _, m := range endToEnd {
				if v := r.metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m.name, v)
				}
			}
		}
	}
}
