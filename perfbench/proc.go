package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one system-under-test process: sliccd or sliccworker, started
// fresh for a unit and stopped at its end.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	addr    string // sliccd's bound address
	exited  chan struct{}
	waitErr error
}

// startProc launches bin with args, its stderr (the structured log) going
// to logPath. With wantAddr it waits for sliccd's "listening on" line on
// stdout and records the address.
func startProc(bin string, args []string, logPath string, wantAddr bool) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{name: bin, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	lines := make(chan string, 1) // the first line only; the reader never blocks on it
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		close(lines)
	}()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	if !wantAddr {
		return p, nil
	}
	select {
	case line, ok := <-lines:
		const prefix = "sliccd listening on "
		if ok && strings.HasPrefix(line, prefix) {
			p.addr = strings.TrimPrefix(line, prefix)
			return p, nil
		}
		p.stop()
		return nil, fmt.Errorf("%s: unexpected first line %q", bin, line)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s: no listen address within 30s", bin)
	}
}

// url is the process's base URL.
func (p *proc) url() string { return "http://" + p.addr }

// cpuSeconds reads the process's user+system CPU time so far from
// /proc/<pid>/stat (clock ticks at the kernel's USER_HZ of 100).
func (p *proc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name: state is [0], utime
	// [11] and stime [12].
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// stop asks the process to drain (SIGTERM), kills it after 20s, waits for
// it, and returns its peak resident set in MB.
func (p *proc) stop() float64 {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
		select {
		case <-p.exited:
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return 0
}

// stopAll stops the processes in reverse start order — workers before
// their control plane, whose graceful drain would otherwise wait out their
// lease long polls — and returns the largest peak resident set.
func stopAll(ps []*proc) float64 {
	var rss float64
	for i := len(ps) - 1; i >= 0; i-- {
		rss = max(rss, ps[i].stop())
	}
	return rss
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("healthz not ready within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
