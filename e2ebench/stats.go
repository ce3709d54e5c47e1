package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailCandidates are the percentiles op_tail_ms may report, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie strictly above the reported tail
// percentile for it to be more than one or two unlucky ops.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p·n/100 that is whole in exact arithmetic from
	// rounding up a rank (99.9% of 10000 is 9990, not 9990.000000000002).
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(i, n-1))
}

// tailPercentile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it, and returns it with that count. With
// too few samples for any candidate it falls back to the median.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailCandidates {
		if b := n - 1 - rankIndex(n, p); b >= minBeyond {
			return p, b
		}
	}
	return 50, max(0, n-1-rankIndex(n, 50))
}

// latencies summarises per-op durations.
type latencies struct {
	p50, tail, mean time.Duration
	tailP           float64
	beyond, n       int
}

func summarise(ds []time.Duration) latencies {
	if len(ds) == 0 {
		return latencies{}
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	p, beyond := tailPercentile(len(s))
	return latencies{
		p50:    s[rankIndex(len(s), 50)],
		tail:   s[rankIndex(len(s), p)],
		mean:   sum / time.Duration(len(s)),
		tailP:  p,
		beyond: beyond,
		n:      len(s),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankIndex(len(s), 50)]
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	user, nice, system, idle, iowait, irq, softirq, steal uint64
}

// total excludes the guest columns: the kernel already counts guest time
// inside user and nice.
func (c cpuStat) total() uint64 {
	return c.user + c.nice + c.system + c.idle + c.iowait + c.irq + c.softirq + c.steal
}

// parseCPUStat reads the aggregate cpu line out of /proc/stat contents.
func parseCPUStat(text string) (cpuStat, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var v [8]uint64
		for i := range v {
			x, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
			}
			v[i] = x
		}
		return cpuStat{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	c, _ := parseCPUStat(string(b))
	return c
}

// stealPct is the share of all CPU time between two readings that the
// hypervisor gave to other guests, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total() <= a.total() || b.steal < a.steal {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total()-a.total())
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the VmHWM high-water mark at the current resident
// set (Linux ≥ 4.0). Where the kernel refuses, VmHWM keeps covering the
// whole process, which only makes the peak larger.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
