package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/api"
)

// tierNice is the scheduling niceness of every tier process.
const tierNice = 5

// daemon is one tier process started by the benchmark.
type daemon struct {
	name string // "wloptd" or "wloptr"
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait returned
}

// tier is the set of daemons one workload runs against: a single wloptd
// (explore, ingest) or wloptr in front of two wloptd backends (hits).
type tier struct {
	procs    []*daemon
	backends []*daemon
	front    *daemon
	storeDir string // ingest only
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin with args plus -addr on a fresh port, logging
// to logPath, and waits until its /healthz answers.
func startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	// The tier shares the host's cores with the generator. Running it at a
	// lower priority keeps an open loop's sends on schedule, so the
	// latencies measure the tier, not a starved generator. nice execs the
	// daemon at that priority from its first instruction, so every thread
	// the daemon starts inherits it, and the PID stays the daemon's.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(tierNice), bin, "-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive a benchmark that was killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	d := &daemon{name: filepath.Base(bin), url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w (log: %s)", d.name, err, logPath)
	}
	return d, nil
}

// waitReady polls /healthz every 250µs, so polling adds little to the
// measured set-up time.
func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return errors.New("exited before becoming ready")
		case <-ctx.Done():
			return errors.New("not ready within 30s")
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 10s, and waits for exit.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// startTier boots the workload's tier from the binaries in binDir, with
// daemon logs and the durable store under runDir.
func startTier(ctx context.Context, workload, binDir, runDir string, boot int) (*tier, error) {
	wloptd, wloptr := filepath.Join(binDir, "wloptd"), filepath.Join(binDir, "wloptr")
	npsdArg := strconv.Itoa(npsd)
	t := &tier{}
	fail := func(err error) (*tier, error) {
		t.stop()
		return nil, err
	}
	logPath := func(name string) string { return filepath.Join(runDir, fmt.Sprintf("%s-boot%d.log", name, boot)) }
	switch workload {
	case "explore", "ingest":
		args := []string{"-npsd", npsdArg, "-node", "d1"}
		if workload == "ingest" {
			t.storeDir = filepath.Join(runDir, fmt.Sprintf("store-boot%d", boot))
			args = append(args, "-store", t.storeDir)
		}
		d, err := startDaemon(ctx, wloptd, logPath("wloptd"), args...)
		if err != nil {
			return fail(err)
		}
		t.procs, t.backends, t.front = []*daemon{d}, []*daemon{d}, d
	case "hits":
		var urls string
		for i := 1; i <= 2; i++ {
			d, err := startDaemon(ctx, wloptd, logPath(fmt.Sprintf("wloptd%d", i)), "-npsd", npsdArg, "-node", fmt.Sprintf("d%d", i))
			if err != nil {
				return fail(err)
			}
			t.procs, t.backends = append(t.procs, d), append(t.backends, d)
			if urls != "" {
				urls += ","
			}
			urls += d.url
		}
		r, err := startDaemon(ctx, wloptr, logPath("wloptr"), "-backends", urls)
		if err != nil {
			return fail(err)
		}
		t.procs, t.front = append(t.procs, r), r
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return t, nil
}

// stop terminates every process, front end first.
func (t *tier) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
	t.procs = nil
}

// tierSnapshot is one reading of every tier process and backend counter.
type tierSnapshot struct {
	proc     map[string]procSample // by daemon URL
	health   []*api.Health         // per backend, in t.backends order
	metrics  string                // the front end's /metrics exposition
	readErrs []error
}

func (t *tier) snapshot(ctx context.Context) tierSnapshot {
	s := tierSnapshot{proc: map[string]procSample{}}
	for _, d := range t.procs {
		ps, err := readProc(d.pid())
		if err != nil {
			s.readErrs = append(s.readErrs, fmt.Errorf("%s: %w", d.name, err))
		}
		s.proc[d.url] = ps
	}
	for _, b := range t.backends {
		h, err := api.NewClient(b.url).Health(ctx)
		if err != nil {
			s.readErrs = append(s.readErrs, fmt.Errorf("healthz %s: %w", b.url, err))
			h = &api.Health{}
		}
		s.health = append(s.health, h)
	}
	m, err := api.NewClient(t.front.url).MetricsText(ctx)
	if err != nil {
		s.readErrs = append(s.readErrs, fmt.Errorf("metrics: %w", err))
	}
	s.metrics = m
	return s
}

// dirKB sums the sizes of the regular files under dir.
func dirKB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}
