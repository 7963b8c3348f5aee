package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running nyquistd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	ready   time.Duration // process start until /readyz answered 200
	stdoutc chan struct{} // closed once stdout reached EOF
	logf    *os.File
}

// daemonArgs are the flags every workload runs with: the defaults,
// plus a loopback port the kernel picks and the workload's data dir.
func daemonArgs(dataDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}
}

// startDaemon launches bin and returns once /readyz answers 200.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonArgs(dataDir)...)
	cmd.Stderr = logf
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, started: start, stdoutc: make(chan struct{}), logf: logf}
	addrc := make(chan string, 1)
	go func() {
		// Drain stdout to EOF so the daemon never blocks on a full pipe;
		// the first line names the bound address.
		defer close(d.stdoutc)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if a, ok := strings.CutPrefix(line, "nyquistd: listening on "); ok && !sent {
				addrc <- a
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			d.kill()
			return nil, errors.New("daemon exited before listening (see " + logPath + ")")
		}
		d.addr = a
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("daemon did not bind within 60s")
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := probe.Get("http://" + d.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("daemon not ready within 120s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	probe.CloseIdleConnections()
	return d, nil
}

// stop sends SIGTERM — the graceful path that seals and commits the
// WAL tail — and waits for the process to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	t := time.AfterFunc(90*time.Second, func() { d.cmd.Process.Kill() })
	<-d.stdoutc
	err := d.cmd.Wait()
	t.Stop()
	d.logf.Close()
	if err != nil {
		return fmt.Errorf("daemon exit: %w", err)
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.stdoutc
	d.cmd.Wait()
	d.logf.Close()
}

// cpuNs is the daemon's CPU time so far, user and system, summed over
// its threads from /proc/<pid>/task/*/schedstat. The tick counts in
// /proc/<pid>/stat are too coarse to split a phase into rounds.
func (d *daemon) cpuNs() (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", d.cmd.Process.Pid, err)
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// peakRSS is the daemon's resident-set high-water mark in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
