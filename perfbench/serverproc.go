package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running `timingc serve -listen` process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// setup is the time from process start until /v1/healthz answered
	// 200.
	setup time.Duration
	// drained is closed once the process's stdout has been read to EOF.
	drained chan struct{}
}

// startServer launches the real binary on a loopback port chosen by
// the kernel. It passes only deployment settings (the listen address
// and the program file) plus the workload's session flags, so a change
// to any serving default shows up in the benchmark.
func startServer(bin, program string, flags ...string) (*serverProc, error) {
	args := append([]string{"serve", "-listen", "127.0.0.1:0"}, flags...)
	args = append(args, program)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark die, the kernel stops the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case p.base = <-addr:
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not announce its address within 30s", bin)
	}
	if err := p.waitHealthy(start); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitHealthy polls /v1/healthz until it answers 200 and records the
// set-up time.
func (p *serverProc) waitHealthy(start time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("server never answered /v1/healthz with 200")
}

// stop interrupts the server (it drains and exits), waits for it, and
// kills it if it has not exited within ten seconds.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		<-p.drained
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		// A server stopped in the moment between answering its first
		// health check and installing its interrupt handler dies of the
		// signal instead of draining: stopped all the same.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return errors.New("server did not exit after SIGINT; killed")
	}
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuTime returns the process's user plus system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// statusField reads one "Key: value" line of /proc/<pid>/status.
func statusField(pid int, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := statusField(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024, err
}

// measureSetup starts the server n times, stopping each, and returns
// the set-up times. The caller starts its measured server afterwards.
func measureSetup(n int, bin, program string, flags ...string) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		p, err := startServer(bin, program, flags...)
		if err != nil {
			return nil, err
		}
		out = append(out, p.setup.Seconds())
		if err := p.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hostTicks returns the steal and total ticks of the "cpu" line of
// /proc/stat (zeros when it cannot be read).
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
