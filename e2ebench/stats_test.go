package main

import (
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	x := newDist([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for _, c := range []struct{ p, want float64 }{{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := x.p(c.p); got != c.want {
			t.Errorf("p%.2f = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(newDist(nil).p(0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := x.mean(); got != 5.5 {
		t.Errorf("mean = %v, want 5.5", got)
	}
}

func TestBeyondSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {1200, 0.99, 12}, {100, 0.5, 50}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping counted once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"outside the parent", []span{{Start: 10, End: 90}}, 100},
		{"covering the parent", []span{{Start: 0, End: 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  400721 286743 119632 1314980 28011 0 20387 59963 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	h, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (hostCPU{total: 2230437, steal: 59963}); h != want {
		t.Errorf("parseHostCPU = %+v, want %+v", h, want)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("a stat without its cpu line parsed")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	stat := "4242 (we(ird) name) S 1 4242 4242 0 -1 4194560 1700 0 0 0 73 19 0 0 20 0 9 0 123 1000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	ticks, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 92 {
		t.Fatalf("utime+stime = %d, want 92", ticks)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\twloptd\nVmPeak:\t  812345 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 51234 {
		t.Fatalf("VmHWM = %d, %v; want 51234", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
}

func TestReadProcSelf(t *testing.T) {
	ps, err := readProc(os.Getpid())
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if ps.hwmMB <= 0 || ps.cpuMS < 0 {
		t.Fatalf("implausible reading %+v", ps)
	}
}

func TestMetricSum(t *testing.T) {
	text := `# HELP wloptr_spills_total Spills.
# TYPE wloptr_spills_total counter
wloptr_spills_total{reason="owner_busy"} 3
wloptr_spills_total{reason="owner_queue_full"} 2
wloptr_spills_totalx 100
wloptr_proxy_retries_total 7
`
	if got := metricSum(text, "wloptr_spills_total"); got != 5 {
		t.Errorf("spills = %v, want 5", got)
	}
	if got := metricSum(text, "wloptr_proxy_retries_total"); got != 7 {
		t.Errorf("retries = %v, want 7", got)
	}
	if got := metricSum(text, "wloptr_absent_total"); got != 0 {
		t.Errorf("absent metric = %v, want 0", got)
	}
}
