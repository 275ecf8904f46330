package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond counts the samples ranked above the nearest-rank p-quantile of n
// samples; a percentile is reported as supported when at least ten lie
// beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(x []float64) dist {
	d := append(dist(nil), x...)
	sort.Float64s(d)
	return d
}

func (d dist) p(q float64) float64 { return percentile(d, q) }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// span is one timed call made from the benchmark's own code.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    int    `json:"job"`
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is s's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), s.Start
	for _, x := range iv {
		a := max(x[0], end)
		if x[1] > a {
			covered += x[1] - a
			end = x[1]
		}
	}
	return s.dur() - covered
}

// clockTicks is the kernel's USER_HZ, which /proc/<pid>/stat counts CPU
// time in; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name may contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")" come fields 3 (state) onward; utime and stime are fields
	// 14 and 15.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	u, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return u + s, nil
}

// parseStatusKB returns a "Key:   N kB" field of /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s field", key)
}

// procSample is one reading of a process's CPU time and peak RSS.
type procSample struct {
	cpuMS float64
	hwmMB float64
}

func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	ticks, err := parseStatCPU(string(stat))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	hwm, err := parseStatusKB(string(status), "VmHWM")
	if err != nil {
		return procSample{}, err
	}
	return procSample{cpuMS: float64(ticks) * 1000 / clockTicks, hwmMB: float64(hwm) / 1024}, nil
}

// hostCPU is the first line of /proc/stat in clock ticks: all CPU time of
// the host so far, and the part a hypervisor gave to other guests.
type hostCPU struct{ total, steal int64 }

// parseHostCPU reads the aggregate "cpu" line of /proc/stat, whose eighth
// value is steal.
func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat cpu: %w", err)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

func readHostCPU() (hostCPU, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(stat))
}

// metricSum adds up every series of one metric in a Prometheus text
// exposition; a metric absent from the text (a lazy counter never bumped)
// reads as zero.
func metricSum(text, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
