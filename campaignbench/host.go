package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// hostContext is printed with every run so that a noisy set of runs can
// be explained afterwards: other load on the box, CPU steal by the
// hypervisor, or a different toolchain. None of it is a metric. Steal
// is summed over the CPUs this process may run on.
type hostContext struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	LoadAvg     string `json:"loadavg"`
	StealBefore int64  `json:"steal_ticks_before"`
	StealAfter  int64  `json:"steal_ticks_after"`
}

func newHostContext() hostContext {
	return hostContext{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		LoadAvg:     loadAvg(),
		StealBefore: stealTicks(),
	}
}

// loadAvg returns the 1/5/15-minute load averages, or "unknown".
func loadAvg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(raw))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// stealTicks sums the allowed CPUs' steal ticks, or returns -1 where
// the kernel does not report them.
func stealTicks() int64 {
	ticks := steal.read()
	if ticks == nil {
		return -1
	}
	var sum int64
	for _, t := range ticks {
		sum += t
	}
	return sum
}

// stealTick is the unit of /proc/stat's counters: USER_HZ, 100 on Linux.
const stealTick = 10 * time.Millisecond

// stealMeter reads the steal counters of the CPUs this process may run
// on. Steal is time the hypervisor ran something else while one of
// those CPUs had work: on a shared 2-vCPU box it swings from 0 to a
// third of the CPU between runs and slows every timed operation by it,
// so the benchmark times operations net of it (see README.md).
type stealMeter struct {
	cpus map[string]bool // "cpu0", "cpu1", ...; nil means every CPU
}

func newStealMeter() *stealMeter {
	m := &stealMeter{}
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return m
	}
	for _, line := range strings.Split(string(raw), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		cpus := map[string]bool{}
		for _, r := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, found := strings.Cut(r, "-")
			if !found {
				hi = lo
			}
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil {
				return m
			}
			for c := a; c <= b; c++ {
				cpus["cpu"+strconv.Itoa(c)] = true
			}
		}
		m.cpus = cpus
	}
	return m
}

// read returns the steal ticks of each allowed CPU, in /proc/stat order;
// nil where the kernel does not report them, which makes every delta 0.
func (m *stealMeter) read() []int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []int64
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" || (m.cpus != nil && !m.cpus[f[0]]) {
			continue
		}
		v, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealMax is the most any one CPU lost between two readings. An
// operation that fans out over every CPU and waits for all of them is
// delayed by about that much.
func stealMax(before, after []int64) time.Duration {
	var most int64
	for i := range before {
		if i < len(after) {
			most = max(most, after[i]-before[i])
		}
	}
	return time.Duration(most) * stealTick
}

// stealMean is the CPUs' average loss between two readings: what
// independent clients, one per CPU, lose together.
func stealMean(before, after []int64) time.Duration {
	if len(before) == 0 || len(after) != len(before) {
		return 0
	}
	var sum int64
	for i := range before {
		sum += after[i] - before[i]
	}
	return time.Duration(sum) * stealTick / time.Duration(len(before))
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// dirMiB sums the sizes of the regular files under dir.
func dirMiB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return float64(total) / (1 << 20), err
}

// goCounters is a runtime/metrics reading; deltas of two readings give
// the allocation and GC cost of the work between them.
type goCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var goSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoCounters() goCounters {
	s := make([]metrics.Sample, len(goSamples))
	for i, name := range goSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return goCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapObjectsBytes is the live-plus-unswept heap right now.
func heapObjectsBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
