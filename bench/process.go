package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnapshot is the process-level cost counters at one instant.
type procSnapshot struct {
	mallocs uint64
	bytes   uint64
	gcPause uint64 // ns
	cpu     time.Duration
}

func snapshotProcess() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procSnapshot{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// costUntil writes the process.* layer over the interval from a to b, in
// which requests requests were served.
func (a procSnapshot) costUntil(r *report, b procSnapshot, requests float64) {
	r.Values["process.allocs_per_req"] = ratio(float64(b.mallocs-a.mallocs), requests)
	r.Values["process.bytes_per_req"] = ratio(float64(b.bytes-a.bytes), requests)
	r.Values["process.gc_pause_ms"] = float64(b.gcPause-a.gcPause) / 1e6
	r.Values["process.cpu_us_per_req"] = ratio(float64((b.cpu - a.cpu).Microseconds()), requests)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errcheck // read-only file
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuModel names the CPU for the report header; "unknown" off Linux/x86.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// header is the machine-shape line every report starts with: numbers from
// a different shape are not comparable.
func header() string {
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// clockCostNs measures what one time.Now/time.Since pair costs, so the
// timing decorators can subtract their own clock reads from what they
// report.
func clockCostNs() float64 {
	const n = 200_000
	var sink time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	total := time.Since(start)
	if sink < 0 {
		return 0
	}
	return float64(total.Nanoseconds()) / n
}
