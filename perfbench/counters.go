package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// Names of the Go runtime metrics sampled around a timed window.
const (
	mSchedLat  = "/sched/latencies:seconds"
	mAllocs    = "/gc/heap/allocs:objects"
	mMutexWait = "/sync/mutex/wait/total:seconds"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
)

// counters is one reading of the kernel's and the Go runtime's counters
// for this process, taken at a window boundary. Everything is read from
// outside the program: getrusage, /proc/self/io and runtime/metrics.
type counters struct {
	wall         int64 // ns since the benchmark's epoch
	user, sys    time.Duration
	vcsw, ivcsw  int64
	syscr, syscw int64
	allocs       uint64
	mutexWait    float64
	gcCPU        float64
	totalCPU     float64
	sched        []uint64  // scheduling-latency bucket counts
	schedBounds  []float64 // their boundaries (seconds)
	steal, ticks int64     // the machine's CPU ticks taken by the hypervisor, and all its CPU ticks
}

func readCounters() counters {
	samples := []metrics.Sample{{Name: mSchedLat}, {Name: mAllocs}, {Name: mMutexWait}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(samples)
	var c counters
	c.wall = now()
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c.allocs = s.Value.Uint64()
		case metrics.KindFloat64:
			switch s.Name {
			case mMutexWait:
				c.mutexWait = s.Value.Float64()
			case mGCCPU:
				c.gcCPU = s.Value.Float64()
			case mTotalCPU:
				c.totalCPU = s.Value.Float64()
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			c.sched = append([]uint64(nil), h.Counts...)
			c.schedBounds = h.Buckets
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.user = time.Duration(ru.Utime.Nano())
		c.sys = time.Duration(ru.Stime.Nano())
		c.vcsw = ru.Nvcsw
		c.ivcsw = ru.Nivcsw
	}
	c.syscr, c.syscw = readProcIO()
	c.steal, c.ticks = readSteal()
	return c
}

// readSteal returns the steal ticks and the total ticks of all CPUs from
// the first line of /proc/stat (zero where the file is unavailable).
// Steal is time the hypervisor ran something else while this machine's
// CPUs had work: no program change moves it, but it stretches every
// wall-clock figure of the window it falls in.
func readSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseInt(string(f), 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// readProcIO returns the read and write syscall counts of this process
// from /proc/self/io (zero where the file is unavailable).
func readProcIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := bytes.Cut(sc.Bytes(), []byte(": "))
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(string(v), 10, 64)
		switch string(k) {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// delta is the difference of two counter readings over one window.
type delta struct {
	wall               time.Duration
	user, sys          time.Duration
	vcsw, ivcsw        int64
	syscr, syscw       int64
	allocs             uint64
	mutexWait          float64
	gcCPUFrac          float64
	schedP50, schedP99 float64 // seconds
	stealFrac          float64 // share of the machine's CPU ticks taken by the hypervisor
}

func diff(a, b counters) delta {
	d := delta{
		wall:      time.Duration(b.wall - a.wall),
		user:      b.user - a.user,
		sys:       b.sys - a.sys,
		vcsw:      b.vcsw - a.vcsw,
		ivcsw:     b.ivcsw - a.ivcsw,
		syscr:     b.syscr - a.syscr,
		syscw:     b.syscw - a.syscw,
		allocs:    b.allocs - a.allocs,
		mutexWait: b.mutexWait - a.mutexWait,
	}
	if t := b.ticks - a.ticks; t > 0 {
		d.stealFrac = float64(b.steal-a.steal) / float64(t)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	if len(a.sched) == len(b.sched) && len(b.sched) > 0 {
		counts := make([]uint64, len(b.sched))
		for i := range counts {
			counts[i] = b.sched[i] - a.sched[i]
		}
		d.schedP50 = histQuantile(counts, b.schedBounds, 0.5)
		d.schedP99 = histQuantile(counts, b.schedBounds, 0.99)
	}
	return d
}

// histQuantile interpolates the q-quantile of a runtime/metrics
// histogram (len(bounds) == len(counts)+1; the outer bounds may be
// infinite, in which case the finite edge is reported).
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bounds[i], bounds[i+1]
			switch {
			case isInf(lo):
				return hi
			case isInf(hi):
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-2]
}

func isInf(f float64) bool { return f > 1e300 || f < -1e300 }
