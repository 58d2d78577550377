// Command perfbench is the repository's benchmark: four workloads that
// drive Kamino-Tx-Simple through the program's public entry points (the
// kamino pool, the KV store, the TPC-C worker, and the KV server and
// client) and report end-to-end metrics from plain runs and per-layer
// metrics from a separate traced run. See README.md in this directory.
//
//	perfbench -workload ycsb-a -seed 1 -seconds 10 -trace 0
//	perfbench -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed correctness gate
// makes the run exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters. The defaults are the benchmark's
// definition; tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; all files stay under root/.bench_build
	out      string

	keys      int // keyspace of ycsb-a, serve-b and restart
	valueSize int
	setups    int // set-ups per run; setup_s is their median
	reloads   int // timed clean restarts of an embedded pool in a traced run, after one discarded lazy one
	restarts  int // timed kaminod restarts of serve-b, after one discarded lazy one

	tpccWarehouses, tpccCustomers, tpccItems int
	restartDirty                             int // acknowledged updates per restart cycle
}

func defaultConfig() config {
	return config{
		keys:           20000,
		valueSize:      1024,
		setups:         3,
		reloads:        101,
		restarts:       5,
		tpccWarehouses: 2,
		tpccCustomers:  200,
		tpccItems:      5000,
		restartDirty:   2000,
	}
}

func (c *config) duration(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produced.
type result struct {
	attempted, failed uint64
	metrics           map[string]metric
	params            map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, params: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) count(l *loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed
}

type workloadFunc func(c *config, g *gate) (*result, error)

var workloads = map[string]workloadFunc{
	"ycsb-a":  runYCSB,
	"tpcc":    runTPCC,
	"serve-b": runServe,
	"restart": runRestart,
}

func main() {
	var (
		c       = defaultConfig()
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		trace   = flag.Int("trace", 0, "0: plain run, end-to-end metrics; 1: traced run, per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.StringVar(&c.workload, "workload", "", "workload: ycsb-a, tpcc, serve-b or restart")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per run")
	flag.StringVar(&c.root, "root", ".", "checkout root")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		if err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	c.seed, c.trace = *seed, *trace == 1
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	run, ok := workloads[c.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want %s)", c.workload, strings.Join(workloadNames(), ", ")))
	}
	if c.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	c.out = filepath.Join(c.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fatal(err)
	}
	prov := provenance(&c)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s; source %s\n", prov.CPUModel, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Revision)

	var g gate
	steal0, total0 := cpuTimes()
	res, err := run(&c, &g)
	if err != nil {
		fatal(err)
	}
	if steal1, total1 := cpuTimes(); total1 > total0 {
		res.params["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
		fmt.Printf("host steal during the run: %.1f%% of CPU time\n", res.params["host_steal_frac"].(float64)*100)
	}
	if err := checkNames(res, c.trace); err != nil {
		fatal(err)
	}
	gerr := g.first()
	correct := gerr == nil
	if gerr != nil {
		fmt.Printf("CORRECTNESS GATE FAILED: %v\n", gerr)
	}
	if err := saveResult(&c, prov, res, correct); err != nil {
		fatal(err)
	}
	printMetrics(res)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkNames fails a run whose metric set differs from the declared one,
// so a workload cannot silently stop reporting a metric.
func checkNames(r *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		got, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, got.Unit, m.unit)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(r.metrics), len(want))
	}
	return nil
}

func printMetrics(r *result) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.attempted, r.failed)
}
