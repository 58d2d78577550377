package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo records where and from what a result was measured.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Revision is the git commit when the checkout is a git work tree,
	// else a digest of the Go sources and module files it builds from.
	Revision string `json:"revision"`
}

func provenance(c *config) hostInfo {
	h := hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(c.root),
	}
	h.Hostname, _ = os.Hostname() // informational only
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func revision(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
				return "git:" + strings.TrimSpace(string(id))
			}
		} else {
			return "git:" + ref
		}
	}
	return "src:" + sourceDigest(root)
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping hidden and build directories.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes returns the host's steal and total CPU time in clock ticks from
// /proc/stat: the share the hypervisor gave to other tenants says how
// disturbed a run was.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// liveRSSMB returns the process's resident set (VmRSS) in MB after a full
// collection that returns free memory to the system: the memory the
// program holds, without the garbage collector's slack, whose size
// depends on where collections happened to fall.
func liveRSSMB() float64 {
	releaseMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if v, ok := strings.CutPrefix(s.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// savedResult is the result file each run leaves under .bench_build.
type savedResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      hostInfo          `json:"host"`
	Params    map[string]any    `json:"params"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func saveResult(c *config, h hostInfo, r *result, correct bool) error {
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedResult{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Traced: c.trace, Host: h,
		Params: r.params, Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, btoi(c.trace))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result: %s\n", path)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareResults prints old→new for every metric of two result files. A
// comparison across hosts, workloads or parameters prints a warning first:
// such numbers do not measure the same thing.
func compareResults(w io.Writer, oldPath, newPath string) error {
	load := func(p string) (*savedResult, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s savedResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	ha, hb := a.Host, b.Host
	ha.Revision, hb.Revision = "", ""
	if ha != hb {
		fmt.Fprintf(w, "WARNING: results come from different hosts (%s, %d CPUs, GOMAXPROCS %d on %s vs %s, %d CPUs, GOMAXPROCS %d on %s); differences may not be the code's\n",
			a.Host.CPUModel, a.Host.NumCPU, a.Host.GOMAXPROCS, a.Host.Hostname, b.Host.CPUModel, b.Host.NumCPU, b.Host.GOMAXPROCS, b.Host.Hostname)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Traced != b.Traced {
		fmt.Fprintf(w, "WARNING: different runs compared (%s %gs traced=%v vs %s %gs traced=%v)\n",
			a.Workload, a.Seconds, a.Traced, b.Workload, b.Seconds, b.Traced)
	}
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "metric", a.Host.Revision, b.Host.Revision, "change")
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Metrics[n]
		mb, ok := b.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-36s %14.4f %14s\n", n, ma.Value, "missing")
			continue
		}
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (mb.Value-ma.Value)/ma.Value*100)
		}
		fmt.Fprintf(w, "%-36s %14.4f %14.4f %9s %s\n", n, ma.Value, mb.Value, change, ma.Unit)
	}
	return nil
}
