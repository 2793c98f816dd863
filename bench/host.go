package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the fingerprint every result carries, so a number can always
// be traced to the machine and build that produced it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitHead    string `json:"git_head"`
	// Threads is the worker count the parallel workloads run with:
	// min(2, nproc). Degraded records that a 2-thread workload ran on
	// one thread because the host has a single core.
	Threads  int  `json:"threads"`
	Degraded bool `json:"threads_degraded"`
}

func fingerprint() host {
	n := runtime.NumCPU()
	h := host{
		NProc:      n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitHead:    gitHead("."),
		Threads:    2,
	}
	if n < 2 {
		h.Threads, h.Degraded = 1, true
	}
	return h
}

// guard refuses an oversubscribed run: more runnable Go threads or more
// workers than cores measures the scheduler, not the code.
func (h host) guard() error {
	if h.GOMAXPROCS > h.NProc {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d available cores", h.GOMAXPROCS, h.NProc)
	}
	if h.Threads > h.NProc {
		return fmt.Errorf("%d threads exceed the %d available cores", h.Threads, h.NProc)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves HEAD by reading the .git directory under root (what
// `git rev-parse HEAD` prints) without starting a process; "unknown"
// outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// statusMB returns a kB field of /proc/self/status — "VmRSS" the resident
// set, "VmHWM" its peak — in MB (1e6 bytes), or 0 where /proc is
// unavailable.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// cpuSeconds returns the process's consumed user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// llcBytes returns the size of the largest cache sysfs reports for
// cpu0 — the last-level cache — or 32 MiB when sysfs has none.
func llcBytes() int64 {
	var llc int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > llc {
			llc = v * mult
		}
	}
	if llc == 0 {
		llc = 32 << 20
	}
	return llc
}

// triad is the result of the STREAM-triad host probe.
type triad struct {
	GBs        float64 // best of the timed passes, 24 bytes per element
	ArrayBytes int64   // size of each of the three arrays
	LLCBytes   int64   // reported last-level cache
}

// triadArrayCap bounds each triad array. Four times the last-level cache
// fits under it on any host whose cache is at most 64 MiB; the review
// host's sysfs reports the hypervisor's whole 260 MiB L3, and first
// touch of three 1040 MiB arrays costs it 18 s (README.md, "Host probe").
const triadArrayCap = 256 << 20

// triadProbe measures sustainable single-thread memory bandwidth with
// a[i] = b[i] + s·c[i] over three arrays of four times the reported
// last-level cache each, at most triadArrayCap; both sizes are printed,
// so a cap that bites is visible. Context for core.roofline_pct, never a
// divisor of an end-to-end metric.
func triadProbe(smoke bool) triad {
	llc := llcBytes()
	bytes := min(4*llc, triadArrayCap)
	if smoke {
		bytes = 1 << 20
	}
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if gbs := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	sink += a[n/2]
	return triad{GBs: best, ArrayBytes: int64(n) * 8, LLCBytes: llc}
}

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float64
