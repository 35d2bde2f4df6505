package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pdcedu/internal/obs"
)

// procSample is the process's exported counters at one instant: CPU
// and peak RSS from getrusage, syscalls and storage bytes from
// /proc/self/io, heap and GC figures from the Go runtime, and the
// program's own obs registry.
type procSample struct {
	usage
	io        map[string]uint64 // syscr, syscw, write_bytes, ...
	gcCycles  uint64
	gcPauseNs uint64
	obs       obs.Snapshot
}

func sampleProc() (procSample, error) {
	s := procSample{usage: readUsage()}
	io, err := readProcIO()
	if err != nil {
		return s, err
	}
	s.io = io
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	s.gcCycles = gc[0].Value.Uint64()
	// runtime/metrics gives GC pauses only as a bucketed histogram;
	// MemStats keeps the exact total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPauseNs = ms.PauseTotalNs
	s.obs = obs.Default().Snapshot()
	return s, nil
}

func readProcIO() (map[string]uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/proc/self/io %s: %w", k, err)
		}
		m[k] = n
	}
	return m, sc.Err()
}

// delta is the change of the process counters across a window.
type delta struct{ before, after procSample }

func (d delta) io(name string) float64 { return float64(d.after.io[name] - d.before.io[name]) }

// counter is the increase of an obs counter.
func (d delta) counter(name string) float64 {
	a, _ := d.after.obs.Get(name)
	b, _ := d.before.obs.Get(name)
	return float64(a.Value - b.Value)
}

// counterPrefix sums the increase of every obs counter under prefix.
func (d delta) counterPrefix(prefix string) float64 {
	var sum float64
	for _, m := range d.after.obs.Metrics {
		if strings.HasPrefix(m.Name, prefix) && m.Kind == obs.KindCounter {
			sum += d.counter(m.Name)
		}
	}
	return sum
}

// histMean is the exact mean (sum / count) of what every obs histogram
// under prefix recorded in the window, in nanoseconds.
func (d delta) histMean(prefix string) float64 {
	var sum, n float64
	for _, m := range d.after.obs.Metrics {
		if !strings.HasPrefix(m.Name, prefix) || m.Hist == nil {
			continue
		}
		sum += float64(m.Hist.Sum)
		n += float64(m.Hist.Count)
		if b, ok := d.before.obs.Get(m.Name); ok && b.Hist != nil {
			sum -= float64(b.Hist.Sum)
			n -= float64(b.Hist.Count)
		}
	}
	return ratio(sum, n)
}

// gauge is an obs gauge's value at the end of the window.
func (d delta) gauge(name string) float64 {
	m, _ := d.after.obs.Get(name)
	return float64(m.Value)
}

// percentile is the nearest-rank q-quantile of exact samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedUs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is the process's CPU time, heap allocation and peak RSS at an
// instant, and the machine's steal time: CPU time the hypervisor gave
// to other guests, which shows when a shared host disturbed a slice.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	alloc    uint64
	maxRSSKB int64
	steal    time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: s[0].Value.Uint64(),
		maxRSSKB: ru.Maxrss, steal: readSteal()}
}

// readSteal reads the steal column of /proc/stat's cpu line (in USER_HZ
// ticks of 10ms); it reads 0 where the file is unavailable.
func readSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// sliceStat is one slice of a window: successful ops, duration, CPU,
// and exact latency percentiles of the ops it completed.
type sliceStat struct {
	n                              int  // position in the window
	used                           bool // chosen by quietSlices
	ops, seconds, cpuUs, stealMs   float64
	getP50, getP99, setP50, setP99 float64
}

func sliceStats(counts []*opCounts, at []usage) []sliceStat {
	out := make([]sliceStat, len(at)-1)
	for j := range out {
		var gets, sets []uint32
		for _, c := range counts {
			var lo mark
			if j > 0 {
				lo = c.marks[j-1]
			}
			hi := c.marks[j]
			gets = append(gets, c.getLat[lo.gets:hi.gets]...)
			sets = append(sets, c.setLat[lo.sets:hi.sets]...)
		}
		g, s := sortedUs(gets), sortedUs(sets)
		out[j] = sliceStat{
			n:       j,
			ops:     float64(len(gets) + len(sets)),
			seconds: at[j+1].at.Sub(at[j].at).Seconds(),
			cpuUs:   us(int64(at[j+1].cpu - at[j].cpu)),
			stealMs: float64(at[j+1].steal-at[j].steal) / 1e6,
			getP50:  percentile(g, 0.50), getP99: percentile(g, 0.99),
			setP50: percentile(s, 0.50), setP99: percentile(s, 0.99),
		}
	}
	return out
}

// quietSlices marks and returns, in the order given, the slices in
// which the hypervisor stole at most quietSteal of the machine's CPU
// time, or the least-stolen third of all slices when fewer than a third
// were that quiet: while the host is busy, the less it took from a
// slice, the nearer the slice is to what the program does on its own.
func quietSlices(ss []*sliceStat) []sliceStat {
	idx := make([]int, len(ss))
	for i := range idx {
		idx[i] = i
	}
	stolen := func(s *sliceStat) float64 { return s.stealMs / 1e3 / s.seconds / float64(runtime.NumCPU()) }
	sort.SliceStable(idx, func(a, b int) bool { return stolen(ss[idx[a]]) < stolen(ss[idx[b]]) })
	n := (len(ss) + 2) / 3
	for n < len(ss) && stolen(ss[idx[n]]) <= quietSteal {
		n++
	}
	idx = idx[:n]
	sort.Ints(idx)
	out := make([]sliceStat, len(idx))
	for i, j := range idx {
		ss[j].used = true
		out[i] = *ss[j]
	}
	return out
}

// midmeanOver is the interquartile mean of f over the slices: the
// mean of what remains after dropping the lowest and highest quarter.
// Like a median it ignores a slice disturbed by the shared machine,
// but it averages more slices, so it varies less from run to run.
func midmeanOver(ss []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	sort.Float64s(v)
	v = v[len(v)/4 : len(v)-len(v)/4]
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
