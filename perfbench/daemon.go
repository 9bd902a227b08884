package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one wfsimd child process listening on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *lockedBuffer
	exited chan struct{}
}

// lockedBuffer collects the child's log output.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// launch starts wfsimd with args and waits until GET /healthz answers 200.
// It returns the time from spawn to healthy: corpus load, symbol interning,
// index build and the baseline snapshot (or, on a restart, recovery).
func launch(ctx context.Context, bin string, args []string, procs int) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	d := &daemon{base: "http://" + addr, log: &lockedBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The child must not outlive the benchmark, even if the benchmark dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start wfsimd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is reported through the log on early exit
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("wfsimd exited before becoming healthy:\n%s", d.log.String())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("wfsimd not healthy after 120s:\n%s", d.log.String())
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
}

// peakRSSMiB reads the child's VmHWM (peak resident set) from /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/%d/status", d.cmd.Process.Pid)
}
